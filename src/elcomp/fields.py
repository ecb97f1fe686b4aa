"""Node-sampled fields and their plain-text file format.

A field file holds one or more blocks.  Each block starts with

    # field <name> grid <dim> <n per axis> <lo per axis> <hi per axis>

followed by one value per line in canonical node order (x fastest).
Values are written with repr, so a save/load round trip is bit exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .expressions import sample_field
from .mesh import Grid, build_grid


@dataclass
class SampledField:
    grid: Grid
    name: str
    values: np.ndarray  # one value per grid node


@dataclass
class BlockField:
    """One value per node and species; species-major like the unknown vector."""

    grid: Grid
    values: np.ndarray  # (n_species, n_nodes)

    @property
    def n_species(self) -> int:
        return self.values.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return self.values[:, self.grid.interior_ids]

    @property
    def boundary(self) -> np.ndarray:
        return self.values[:, self.grid.boundary_ids]


def block_from_exprs(grid: Grid, exprs) -> BlockField:
    vals = np.stack([sample_field(e, grid) for e in exprs])
    return BlockField(grid, vals)


def block_from_solution(
    grid: Grid, n_species: int, u_int: np.ndarray, g_vec: np.ndarray
) -> BlockField:
    """Embed an interior solution vector and boundary data (zero when g_vec
    is None) into a full field."""
    values = np.zeros((n_species, grid.n_nodes))
    values[:, grid.interior_ids] = np.asarray(u_int, dtype=float).reshape(
        n_species, grid.n_interior
    )
    if g_vec is not None:
        values[:, grid.boundary_ids] = np.asarray(g_vec, dtype=float).reshape(
            n_species, grid.n_boundary
        )
    return BlockField(grid, values)


def _header_line(name: str, grid: Grid) -> str:
    parts = ["# field", name, "grid", str(grid.dim)]
    parts += [str(v) for v in grid.n]
    parts += [repr(float(v)) for v in grid.lo]
    parts += [repr(float(v)) for v in grid.hi]
    return " ".join(parts)


def save_fields(path, fields) -> None:
    """Write SampledField blocks (or a BlockField as u1..uN) to a file."""
    if isinstance(fields, BlockField):
        fields = [
            SampledField(fields.grid, f"u{k + 1}", fields.values[k])
            for k in range(fields.n_species)
        ]
    lines = []
    for fld in fields:
        if len(fld.values) != fld.grid.n_nodes:
            raise ValidationError(
                f"field {fld.name}: {len(fld.values)} values for "
                f"{fld.grid.n_nodes} nodes"
            )
        lines.append(_header_line(fld.name, fld.grid))
        lines.extend(map(repr, np.asarray(fld.values, dtype=float).tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(tokens, lineno):
    if len(tokens) < 5 or tokens[:2] != ["#", "field"] or tokens[3] != "grid":
        raise ParseError("malformed field header", line=lineno)
    name = tokens[2]
    try:
        dim = int(tokens[4])
        rest = tokens[5:]
        if len(rest) != 3 * dim:
            raise ValueError
        n = tuple(int(t) for t in rest[:dim])
        lo = tuple(float(t) for t in rest[dim : 2 * dim])
        hi = tuple(float(t) for t in rest[2 * dim :])
    except ValueError:
        raise ParseError(
            "field header needs: dim, n per axis, lo per axis, hi per axis",
            line=lineno,
        ) from None
    return name, build_grid(dim, lo, hi, n)


def read_text(path) -> str:
    """A UTF-8 input file's text; other bytes are a ParseError at their offset."""
    with open(path, "rb") as fh:
        return decode_text(fh.read())


def decode_text(data: bytes) -> str:
    """data as UTF-8 text; other bytes are a ParseError at their offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(
            f"not UTF-8 text: {err.reason}", offset=err.start, line=line
        ) from None


def load_fields(path, grid: Grid | None = None) -> list:
    """Parse every field block in the file; grid, if given, must match."""
    raw = read_text(path).splitlines()
    fields = []
    current = None  # (name, grid, values list, header lineno)
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            tokens = stripped.split()
            if len(tokens) >= 2 and tokens[1] == "field":
                if current is not None:
                    fields.append(_finish_block(current))
                current = [*_parse_header(tokens, lineno), [], lineno]
            continue
        if current is None:
            raise ParseError("value before any field header", line=lineno)
        try:
            current[2].append(float(stripped))
        except ValueError:
            raise ParseError(f"bad value {stripped!r}", line=lineno) from None
    if current is not None:
        fields.append(_finish_block(current))
    if not fields:
        raise ParseError("no field blocks found in file")
    if grid is not None:
        for fld in fields:
            if fld.grid != grid:
                raise ValidationError(
                    f"field {fld.name} was sampled on a different grid"
                )
    return fields


def _finish_block(current) -> SampledField:
    name, grid, values, lineno = current
    if len(values) != grid.n_nodes:
        raise ParseError(
            f"field {name}: {len(values)} values for {grid.n_nodes} nodes",
            line=lineno,
        )
    return SampledField(grid, name, np.asarray(values))


def load_block(path, grid: Grid, n_species: int) -> BlockField:
    """Load fields named u1..uN (in any order) into a BlockField."""
    fields = {f.name: f for f in load_fields(path, grid)}
    values = np.empty((n_species, grid.n_nodes))
    for k in range(n_species):
        name = f"u{k + 1}"
        if name not in fields:
            raise ValidationError(f"file lacks field {name!r}")
        values[k] = fields[name].values
    return BlockField(grid, values)
