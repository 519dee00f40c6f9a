"""Pretty printing of MIR bodies in the style of the paper's Figure 1."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mir.ir import Body, Location


def pretty_body(body: Body, annotations: Optional[Dict[Location, str]] = None) -> str:
    """Render a whole body as text.

    ``annotations`` optionally maps locations to extra text printed beside the
    instruction — the evaluation and examples use this to show each
    instruction's dependency set, replicating the right-hand side of Figure 1.
    """
    lines: List[str] = []
    signature = body.signature.pretty() if body.signature else f"fn {body.fn_name}(...)"
    lines.append(f"// crate: {body.crate}")
    lines.append(signature + " {")

    for local in body.locals:
        role: str
        if local.index == 0:
            role = "return place"
        elif local.is_arg:
            role = "argument"
        elif local.name:
            role = "user variable"
        else:
            role = "temporary"
        lines.append(f"    let _{local.index}: {local.ty.pretty()};  // {role}"
                     + (f" `{local.name}`" if local.name else ""))

    for block_idx, block in enumerate(body.blocks):
        lines.append("")
        lines.append(f"    bb{block_idx}:")
        for stmt_idx, stmt in enumerate(block.statements):
            location = Location(block_idx, stmt_idx)
            suffix = ""
            if annotations and location in annotations:
                suffix = f"    // {annotations[location]}"
            lines.append(f"        {stmt.pretty(body)};{suffix}")
        term_location = Location(block_idx, len(block.statements))
        suffix = ""
        if annotations and term_location in annotations:
            suffix = f"    // {annotations[term_location]}"
        lines.append(f"        {block.terminator.pretty(body)};{suffix}")

    lines.append("}")
    return "\n".join(lines)


def pretty_location(body: Body, location: Location) -> str:
    """Render a single instruction at ``location``."""
    instruction = body.instruction_at(location)
    return f"{location.pretty()}: {instruction.pretty(body)}"
