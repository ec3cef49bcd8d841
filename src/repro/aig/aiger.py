"""ASCII AIGER ('aag') reader and writer.

Supports the combinational subset of the AIGER 1.9 ASCII format — header
``aag M I L O A`` with ``L = 0`` — plus input/output symbol table entries
and comments.  This is the interchange format of the EPFL benchmark suite
the paper consumes, so circuits built here can round-trip to standard
tools and externally supplied benchmarks can be fed to the pipeline.
"""

from __future__ import annotations

import io

from repro.aig.network import AIG

__all__ = ["dumps", "loads"]


def dumps(aig: AIG) -> str:
    """Serialise to an ASCII AIGER string."""
    buffer = io.StringIO()
    maximum = aig.num_vars - 1
    buffer.write(
        f"aag {maximum} {aig.num_inputs} 0 {aig.num_outputs} {aig.num_ands}\n"
    )
    for variable in aig.input_variables():
        buffer.write(f"{2 * variable}\n")
    for literal, __ in aig.outputs():
        buffer.write(f"{literal}\n")
    for variable in aig.and_variables():
        f0, f1 = aig.fanins(variable)
        # AIGER requires fanin literals smaller than the node literal and
        # fanin0 >= fanin1.
        hi, lo = (f0, f1) if f0 >= f1 else (f1, f0)
        buffer.write(f"{2 * variable} {hi} {lo}\n")
    for position, name in enumerate(aig.input_names()):
        buffer.write(f"i{position} {name}\n")
    for position, (__, name) in enumerate(aig.outputs()):
        buffer.write(f"o{position} {name}\n")
    buffer.write(f"c\ngenerated by repro ({aig.name})\n")
    return buffer.getvalue()


def loads(text: str, name: str = "aig") -> AIG:
    """Parse an ASCII AIGER string into an :class:`AIG`."""
    lines = [line.strip() for line in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty AIGER input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise ValueError(f"unsupported AIGER header: {lines[0]!r}")
    maximum, num_inputs, num_latches, num_outputs, num_ands = map(int, header[1:])
    if num_latches:
        raise ValueError("sequential AIGER (latches) is not supported")
    if maximum != num_inputs + num_ands:
        raise ValueError("AIGER header M != I + A (gaps are not supported)")

    cursor = 1
    aig = AIG(name=name)
    input_literals = []
    for position in range(num_inputs):
        literal = int(lines[cursor])
        cursor += 1
        if literal != 2 * (position + 1):
            raise ValueError(f"non-contiguous input literal {literal}")
        input_literals.append(aig.add_input())

    output_literals = [int(lines[cursor + k]) for k in range(num_outputs)]
    cursor += num_outputs

    # Map file literals to rebuilt literals (strashing may merge nodes).
    rebuilt: dict[int, int] = {0: 0}
    for position, literal in enumerate(input_literals):
        rebuilt[2 * (position + 1)] = literal
    for __ in range(num_ands):
        parts = lines[cursor].split()
        cursor += 1
        if len(parts) != 3:
            raise ValueError(f"malformed AND line: {lines[cursor - 1]!r}")
        node_lit, f0, f1 = map(int, parts)
        rebuilt[node_lit] = aig.add_and(
            _map_literal(rebuilt, f0), _map_literal(rebuilt, f1)
        )

    names = {}
    while cursor < len(lines):
        line = lines[cursor]
        cursor += 1
        if line == "c":
            break
        if line and line[0] in "io" and " " in line:
            tag, symbol = line.split(" ", 1)
            names[tag] = symbol
    for position, literal in enumerate(output_literals):
        aig.add_output(
            _map_literal(rebuilt, literal), names.get(f"o{position}")
        )
    for position in range(num_inputs):
        symbol = names.get(f"i{position}")
        if symbol is not None:
            aig._inputs[position] = symbol
    return aig


def _map_literal(rebuilt: dict[int, int], literal: int) -> int:
    try:
        mapped = rebuilt[literal & ~1]
    except KeyError:
        raise ValueError(
            f"AND references literal {literal} before its definition"
        ) from None
    return mapped ^ (literal & 1)
