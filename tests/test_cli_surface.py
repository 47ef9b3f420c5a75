"""The CLI's surface, pinned: every subcommand's options with their
dest, action, type, default, choices and nargs.

The table below was taken from ``build_parser()`` before the parser's
shared option groups (``--core``/``--tiles``/``--hierarchy``, the
config-file pair, the fault-rate flags, the workload-or-``--report``
block) were folded into helpers. A helper that drops, adds or retypes a
flag on any command fails here; a deliberate change to the CLI updates
the table in the same commit.
"""

import argparse

from repro.cli import build_parser

SURFACE = {
    '': {
        '-q --quiet': 'storetrue quiet=False nargs=0 const=True',
        '-v --verbose': 'storetrue verbose=False nargs=0 const=True',
    },
    'analyze': {
        '--checkpoint': 'store checkpoint=None',
        '--checkpoint-every': 'store checkpoint_every:int=500000',
        '--checkpoint-keep': 'store checkpoint_keep:int=2',
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--dae': 'storetrue dae=False nargs=0 const=True',
        '--hierarchy': "store hierarchy='dae' {dae,none,xeon}",
        '--jobs': 'store jobs:int=1',
        '--journal': 'store journal=None',
        '--json': 'store json=None',
        '--max-cycles': 'store max_cycles:int=2000000000',
        '--memory': 'storetrue memory=False nargs=0 const=True',
        '--pairs': 'store pairs:int=1',
        '--report': 'store report=None',
        '--resume': 'store resume=None',
        '--resume-sweep': 'storetrue resume_sweep=False nargs=0 const=True',
        '--size': 'append size=None',
        '--sweep': 'append sweep=None',
        '--tiles': 'store tiles:int=1',
        '--top': 'store top:int=3',
        'workload': 'store workload=None nargs=?',
    },
    'campaign': {
        '--accel-fault-rate': 'store accel_fault_rate:float=0.05',
        '--bitflip-rate': 'store bitflip_rate:float=0.01',
        '--ci-target': 'store ci_target:float=None',
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--delay-rate': 'store delay_rate:float=0.05',
        '--dram-stall-rate': 'store dram_stall_rate:float=0.05',
        '--drop-rate': 'store drop_rate:float=0.01',
        '--hierarchy': "store hierarchy='dae' {dae,none,xeon}",
        '--jobs': 'store jobs:int=1',
        '--journal': 'store journal=None',
        '--json': 'store json=None',
        '--max-cycles': 'store max_cycles:int=None',
        '--resume-campaign':
            'storetrue resume_campaign=False nargs=0 const=True',
        '--sdc-threshold': 'store sdc_threshold:float=None',
        '--seed': 'store seed:int=0',
        '--sites': 'store sites=None',
        '--size': 'append size=None',
        '--tiles': 'store tiles:int=1',
        '--timeout': 'store timeout:float=None',
        '--trials': 'store trials:int=24',
        'workload': 'store workload=None required',
    },
    'characterize': {
        'workloads': 'store workloads=None nargs=* required',
    },
    'dae': {
        '--pairs': 'store pairs:int=1',
        '--size': 'append size=None',
        'workload': 'store workload=None required',
    },
    'diff': {
        '--memory': 'storetrue memory=False nargs=0 const=True',
        '--top': 'store top:int=5',
        'after': 'store after=None required',
        'before': 'store before=None required',
    },
    'dump-config': {
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--hierarchy': "store hierarchy='dae' {dae,xeon}",
        '--prefix': "store prefix='system'",
    },
    'inject': {
        '--accel-fault-rate': 'store accel_fault_rate:float=0.0',
        '--bitflip-rate': 'store bitflip_rate:float=0.0',
        '--checkpoint': 'store checkpoint=None',
        '--checkpoint-every': 'store checkpoint_every:int=500000',
        '--checkpoint-keep': 'store checkpoint_keep:int=2',
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--delay-rate': 'store delay_rate:float=0.0',
        '--dram-stall-rate': 'store dram_stall_rate:float=0.0',
        '--drop-rate': 'store drop_rate:float=0.0',
        '--hierarchy': "store hierarchy='dae' {dae,none,xeon}",
        '--jobs': 'store jobs:int=1',
        '--journal': 'store journal=None',
        '--max-cycles': 'store max_cycles:int=2000000000',
        '--resume': 'store resume=None',
        '--resume-sweep': 'storetrue resume_sweep=False nargs=0 const=True',
        '--retries': 'store retries:int=0',
        '--run-id': 'store run_id=None',
        '--seed': 'store seed:int=0',
        '--size': 'append size=None',
        '--sweep': 'append sweep=None',
        '--tiles': 'store tiles:int=1',
        '--timeout': 'store timeout:float=None',
        'workload': 'store workload=None required',
    },
    'ir': {
        '--size': 'append size=None',
        'workload': 'store workload=None required',
    },
    'list': {
    },
    'memstat': {
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--core-config': 'store core_config=None',
        '--dae': 'storetrue dae=False nargs=0 const=True',
        '--epoch-cycles': 'store epoch_cycles:int=1024',
        '--hierarchy': "store hierarchy='dae' {dae,none,xeon}",
        '--hierarchy-config': 'store hierarchy_config=None',
        '--json': 'store json=None',
        '--max-cycles': 'store max_cycles:int=2000000000',
        '--pairs': 'store pairs:int=1',
        '--report': 'store report=None',
        '--sample-every': 'store sample_every:int=8',
        '--size': 'append size=None',
        '--tiles': 'store tiles:int=1',
        '--width': 'store width:int=48',
        'workload': 'store workload=None nargs=?',
    },
    'simulate': {
        '--checkpoint': 'store checkpoint=None',
        '--checkpoint-every': 'store checkpoint_every:int=500000',
        '--checkpoint-keep': 'store checkpoint_keep:int=2',
        '--core': "store core='ooo' {ino,ooo,xeon}",
        '--core-config': 'store core_config=None',
        '--heartbeat': 'store heartbeat=None',
        '--heartbeat-every': 'store heartbeat_every:int=None',
        '--hierarchy': "store hierarchy='dae' {dae,none,xeon}",
        '--hierarchy-config': 'store hierarchy_config=None',
        '--jobs': 'store jobs:int=1',
        '--journal': 'store journal=None',
        '--max-cycles': 'store max_cycles:int=2000000000',
        '--memstat': 'storetrue memstat=False nargs=0 const=True',
        '--metrics': 'store metrics=None',
        '--profile': 'storetrue profile=False nargs=0 const=True',
        '--resume': 'store resume=None',
        '--resume-sweep': 'storetrue resume_sweep=False nargs=0 const=True',
        '--retries': 'store retries:int=0',
        '--run-id': 'store run_id=None',
        '--size': 'append size=None',
        '--stats-json': 'store stats_json=None',
        '--sweep': 'append sweep=None',
        '--tiles': 'store tiles:int=1',
        '--timeout': 'store timeout:float=None',
        '--trace': 'store trace=None',
        'workload': 'store workload=None required',
    },
    'timeline': {
        '--limit': 'store limit:int=None',
        '--name-prefix': 'store name_prefix=None',
        '--tile': 'store tile=None',
        '--width': 'store width:int=72',
        'trace': 'store trace=None required',
    },
    'trace': {
        '--size': 'append size=None',
        '--tiles': 'store tiles:int=1',
        '-o --output': 'store output=None required',
        'workload': 'store workload=None required',
    },
    'watch': {
        '--interval': 'store interval:float=2.0',
        '--once': 'storetrue once=False nargs=0 const=True',
        '--stall-after': 'store stall_after:float=10.0',
        'journal': 'store journal=None required',
    },
}


def describe(action: argparse.Action) -> str:
    """One option as ``<action> <dest>[:type]=<default> [{choices}]
    [nargs=N] [const=C] [required]``."""
    kind = type(action).__name__.strip("_").replace("Action", "").lower()
    text = f"{kind} {action.dest}"
    if action.type is not None:
        text += f":{action.type.__name__}"
    text += f"={action.default!r}"
    if action.choices is not None:
        text += " {" + ",".join(action.choices) + "}"
    if action.nargs is not None:
        text += f" nargs={action.nargs}"
    if action.const is not None:
        text += f" const={action.const!r}"
    if action.required:
        text += " required"
    return text


def surface(parser: argparse.ArgumentParser) -> dict:
    return {" ".join(action.option_strings) or action.dest: describe(action)
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction,
                                       argparse._SubParsersAction))}


def test_every_command_keeps_its_options():
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    got = {"": surface(parser)}
    got.update((name, surface(sub))
               for name, sub in commands.choices.items())
    assert sorted(got) == sorted(SURFACE)
    for command, options in SURFACE.items():
        assert got[command] == options, command
