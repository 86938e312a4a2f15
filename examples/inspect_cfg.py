#!/usr/bin/env python
"""CFG inspection: the front half of the MAGIC pipeline, standalone.

Parses an ``.asm`` listing (a file you pass, or a built-in sample),
builds the control flow graph with the two-pass algorithm, prints the
blocks, edges and Table I attributes, and demonstrates serialization and
the networkx bridge.

Run:  python examples/inspect_cfg.py [path/to/listing.asm]
"""

import sys
import tempfile

import networkx as nx

from repro.asm import AsmParser
from repro.cfg import CfgBuilder, load_cfg, save_cfg
from repro.features import ACFG, DEFAULT_ATTRIBUTES

SAMPLE = """
.text:00401000 push ebp               ; prologue
.text:00401001 mov ebp, esp
.text:00401004 mov ecx, 0x3
loc_401009:
.text:00401009 dec ecx                ; loop body
.text:0040100A test ecx, ecx
.text:0040100C jnz loc_401009
.text:0040100E cmp eax, 0x7F
.text:00401011 jz loc_401018
.text:00401013 call sub_401020
.text:00401018 retn
.text:00401020 xor eax, eax           ; helper function
.text:00401022 retn
"""


def main() -> None:
    if len(sys.argv) > 1:
        with open(sys.argv[1], "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        name = sys.argv[1]
    else:
        text, name = SAMPLE, "(built-in sample)"

    parser = AsmParser()
    program = parser.parse(text)
    print(f"Parsed {name}: {len(program)} instructions, "
          f"{parser.skipped_lines} unparseable lines skipped")

    builder = CfgBuilder(resolve_target=parser.resolve_target)
    cfg = builder.build(program, name=name)
    print(f"CFG: {cfg.num_vertices} blocks, {cfg.num_edges} edges\n")

    acfg = ACFG.from_cfg(cfg)
    names = DEFAULT_ATTRIBUTES
    for index, block in enumerate(cfg.blocks()):
        mnemonics = " ".join(i.mnemonic for i in block.instructions)
        print(f"block {block.start_address:#x}  [{mnemonics}]")
        attributes = acfg.attributes[index]
        interesting = {
            n: int(v) for n, v in zip(names, attributes) if v != 0
        }
        print(f"  attributes: {interesting}")
        successors = [f"{s.start_address:#x}" for s in cfg.successors(block)]
        print(f"  successors: {successors or '(exit)'}\n")

    # Serialization round trip.
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
        path = fh.name
    save_cfg(cfg, path)
    restored = load_cfg(path)
    print(f"Serialized to {path} and reloaded: "
          f"{restored.num_vertices} blocks, {restored.num_edges} edges")

    # networkx analysis.
    graph = cfg.to_networkx()
    print(f"networkx view: DAG={nx.is_directed_acyclic_graph(graph)}, "
          f"weakly connected components="
          f"{nx.number_weakly_connected_components(graph)}")
    try:
        cycle = nx.find_cycle(graph)
        print(f"first cycle found (a loop in the program): {cycle}")
    except nx.NetworkXNoCycle:
        print("no cycles (straight-line program)")


if __name__ == "__main__":
    main()
