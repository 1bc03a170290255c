"""CSV schemas and archive persistence.

All inputs and outputs are UTF-8 CSV with a mandatory header row. Empty
cells mean "missing". Writers are atomic (temp file in the same
directory, then rename) and format floats with ``repr``, so a fixed seed
yields byte-identical files. Schema violations raise
:class:`~arealbayes.errors.SchemaError` naming file, line and column.

Pinned formats, each read here by its ``read_*`` function:

    adjacency:  src,dst,weight          (0-based, each undirected edge once)
    areas:      area_id,name,group
    indicators: area_id,<col1>,...      (empty cell = missing)
    counts:     area_id,observed,expected   (empty observed = suppressed)
    covariates: area_id,ice,factor1..factorM
    extremes:   area_id,privileged,deprived,total   (for ICE)
    scores:     area_id,<score>         (one factor's scores)
    strata:     area_id,stratum,population[,deaths]
    rates:      stratum,rate
    archive:    chain,iter,param,index,value  plus "<path>.meta" key = value
                (read as a whole table: rows in any order, values bit-exact)

The archive writer formats the rows of each (chain, parameter) block
apart, in worker processes when asked for more than one, and writes the
blocks in file order as they arrive; it hashes the CSV and the ``.meta``
from the bytes it writes. The files are the same for any worker count.

Beside each archive the writer also leaves ``<path>.npy``, a cache of the
draws: the SHA-256 of the CSV and of the ``.meta`` as written, the chain-0
iteration order and every value as one flat float64 array. The reader
uses it only when it loads cleanly and both digests match the files on
disk; a missing, stale or damaged cache is ignored and the CSV is parsed,
with the same result. The cache is never needed to read an archive and
is safe to delete. The CSV and ``.meta`` formats are the same with or
without it.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .mcmc import ChainArchive, McmcConfig, worker_map
from .prep import IndicatorPanel, StrataTable

__all__ = [
    "atomic_write",
    "read_adjacency",
    "write_adjacency",
    "read_areas",
    "write_areas",
    "read_indicators",
    "write_indicators",
    "read_counts",
    "write_counts",
    "read_covariates",
    "write_covariates",
    "read_strata",
    "write_strata",
    "read_rates",
    "write_rates",
    "read_extremes",
    "read_scores",
    "read_column",
    "read_archive",
    "write_archive",
    "read_config",
    "write_table",
    "format_cell",
]


@contextmanager
def atomic_write(path, binary=False):
    """Write to a temp file beside ``path`` and rename on success."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with os.fdopen(fd, "wb" if binary else "w", **text) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_cell(value) -> str:
    """A cell as the writers spell it: ``repr`` for floats, empty for NaN or None."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)  # np.float64 subclasses float but reprs differently
        if np.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def _open_rows(path):
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file (header row is mandatory)")
    return rows


def _require_header(path, header, expected):
    """``header`` must start with ``expected``, where ``<name>`` matches any name."""
    names = [e if e.startswith("<") else h.strip() for e, h in zip(expected, header)]
    if names != list(expected):
        raise SchemaError(
            f"{path}:1: header must start with {','.join(expected)}, "
            f"got {','.join(header)}"
        )


def _data_rows(path, rows, columns):
    """``(lineno, row)`` for every row after the header ``rows[0]`` that has
    a non-blank cell. A row narrower than ``columns``, the names of the
    columns it needs, raises SchemaError naming its line."""
    for lineno, row in enumerate(rows[1:], start=2):
        if all(not c.strip() for c in row):
            continue
        if len(row) < len(columns):
            raise SchemaError(
                f"{path}:{lineno}: expected {len(columns)} columns {','.join(columns)}"
            )
        yield lineno, row


def _parse_float(path, lineno, column, cell, allow_empty=False):
    cell = cell.strip()
    if cell == "":
        if allow_empty:
            return float("nan")
        raise SchemaError(f"{path}:{lineno}: column {column!r}: value required")
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(
            f"{path}:{lineno}: column {column!r}: expected a number, got {cell!r}"
        ) from None


def _read_floats(path, columns, required=(), open_ended=False, column=None):
    """``(names, ids, values)``: the header names read (all of them when
    ``open_ended``, else as many as ``columns``, which the header must
    start with, or up to ``column``), each row's first cell and a row of
    its numbers in ``names[1:]`` (in ``column`` alone). An empty cell is
    NaN unless its column is ``required``; a row narrower than ``names``,
    or wider when ``open_ended``, and a file without rows are errors."""
    rows = _open_rows(path)
    header = [h.strip() for h in rows[0]]
    if column is not None:
        if column not in header:
            raise SchemaError(f"{path}:1: no column named {column!r}")
        columns = header[: header.index(column) + 1]
    _require_header(path, rows[0], columns)
    names = header if open_ended else header[: len(columns)]
    first = len(names) - 1 if column is not None else 1
    ids, data = [], []
    for lineno, row in _data_rows(path, rows, names):
        if open_ended and len(row) != len(names):
            raise SchemaError(f"{path}:{lineno}: expected {len(names)} columns, got {len(row)}")
        ids.append(row[0].strip())
        data.append([_parse_float(path, lineno, name, cell, allow_empty=name not in required)
                     for name, cell in zip(names[first:], row[first:])])
    if not ids:
        raise SchemaError(f"{path}: no data rows")
    return names, ids, np.array(data, dtype=float)


def write_table(path, header, rows) -> None:
    """Generic CSV writer used by all the writers below."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


# -- adjacency ---------------------------------------------------------------


def read_adjacency(path) -> list[tuple[int, int, float]]:
    """Edges as ``(src, dst, weight)``, parsed as one array.

    The row loop runs only when that parse fails or an index is not an
    integer: it names the first bad cell, or reads what the array parse
    refuses but the schema allows (a row of blank cells, ``1_000``).
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            _require_header(path, next(csv.reader(handle)), ("src", "dst", "weight"))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without rows
                table = np.loadtxt(handle, delimiter=",", usecols=(0, 1, 2), ndmin=2,
                                   comments=None, quotechar='"')
    except (OSError, StopIteration, ValueError):
        return _read_adjacency_rows(path)
    ends = table[:, :2]
    if not (np.all(np.abs(ends) < 2.0**63) and np.all(ends == np.trunc(ends))):
        return _read_adjacency_rows(path)
    src, dst = ends.astype(np.int64).T.tolist()
    return list(zip(src, dst, table[:, 2].tolist()))


def _read_adjacency_rows(path) -> list[tuple[int, int, float]]:
    rows = _open_rows(path)
    columns = ("src", "dst", "weight")
    _require_header(path, rows[0], columns)
    edges = []
    for lineno, row in _data_rows(path, rows, columns):
        src = _parse_float(path, lineno, "src", row[0])
        dst = _parse_float(path, lineno, "dst", row[1])
        w = _parse_float(path, lineno, "weight", row[2])
        if src % 1 or dst % 1:  # also true for NaN and infinity
            raise SchemaError(f"{path}:{lineno}: src and dst must be integers")
        edges.append((int(src), int(dst), w))
    return edges


def write_adjacency(path, graph) -> None:
    write_table(path, ("src", "dst", "weight"), graph.edges())


# -- area metadata -----------------------------------------------------------


def read_areas(path) -> tuple[list[str], list[str], list[str]]:
    rows = _open_rows(path)
    _require_header(path, rows[0], ("area_id", "name", "group"))
    ids, names, groups = [], [], []
    for _, row in _data_rows(path, rows, ("area_id",)):
        ids.append(row[0].strip())
        names.append(row[1].strip() if len(row) > 1 else "")
        groups.append(row[2].strip() if len(row) > 2 else "")
    return ids, names, groups


def write_areas(path, area_ids, names=None, groups=None) -> None:
    names = names or list(area_ids)
    groups = groups or [""] * len(area_ids)
    write_table(path, ("area_id", "name", "group"), zip(area_ids, names, groups))


# -- indicator panel ---------------------------------------------------------


def read_indicators(path) -> IndicatorPanel:
    names, ids, values = _read_floats(path, ("area_id",), open_ended=True)
    if len(names) < 2:
        raise SchemaError(f"{path}:1: no indicator columns")
    return IndicatorPanel(ids, names[1:], values)


def write_indicators(path, panel: IndicatorPanel) -> None:
    rows = (
        [panel.area_ids[i]] + [panel.values[i, p] for p in range(panel.n_indicators)]
        for i in range(panel.n_areas)
    )
    write_table(path, ["area_id"] + list(panel.columns), rows)


# -- counts ------------------------------------------------------------------


def read_counts(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    _, ids, values = _read_floats(path, ("area_id", "observed", "expected"),
                                  required=("expected",))
    return (ids, *values.T.copy())


def write_counts(path, area_ids, observed, expected) -> None:
    rows = zip(area_ids, np.asarray(observed, dtype=float), np.asarray(expected, dtype=float))
    write_table(path, ("area_id", "observed", "expected"), rows)


# -- covariates --------------------------------------------------------------


def read_covariates(path) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    names, ids, values = _read_floats(path, ("area_id", "ice"), open_ended=True)
    return ids, values[:, 0].copy(), values[:, 1:].copy(), names[2:]


def write_covariates(path, area_ids, ice, factors=None, factor_names=None) -> None:
    factors = np.zeros((len(area_ids), 0)) if factors is None else np.asarray(factors, float)
    factor_names = factor_names or [f"factor{j+1}" for j in range(factors.shape[1])]
    rows = (
        [area_ids[i], float(ice[i])] + [factors[i, j] for j in range(factors.shape[1])]
        for i in range(len(area_ids))
    )
    write_table(path, ["area_id", "ice"] + list(factor_names), rows)


# -- strata and reference rates ---------------------------------------------


def read_strata(path) -> StrataTable:
    rows = _open_rows(path)
    header = [h.strip() for h in rows[0]]
    has_deaths = header[:4] == ["area_id", "stratum", "population", "deaths"]
    columns = ("area_id", "stratum", "population")
    if not has_deaths:
        _require_header(path, rows[0], columns)
    # each area and stratum maps to its index in order of first appearance
    ids: dict[str, int] = {}
    strata: dict[str, int] = {}
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for lineno, row in _data_rows(path, rows, columns):
        area, stratum = row[0].strip(), row[1].strip()
        pop = _parse_float(path, lineno, "population", row[2])
        dth = (
            _parse_float(path, lineno, "deaths", row[3], allow_empty=True)
            if has_deaths and len(row) > 3
            else float("nan")
        )
        cell = (ids.setdefault(area, len(ids)), strata.setdefault(stratum, len(strata)))
        if cell in cells:
            raise SchemaError(f"{path}:{lineno}: duplicate (area_id, stratum) pair")
        cells[cell] = (pop, dth)
    population = np.zeros((len(ids), len(strata)))
    deaths = np.zeros((len(ids), len(strata)))
    for (i, s), (pop, dth) in cells.items():
        population[i, s] = pop
        if has_deaths:
            deaths[i, s] = dth  # NaN marks a suppressed cell
    return StrataTable(list(ids), list(strata), population, deaths if has_deaths else None)


def write_strata(path, strata: StrataTable) -> None:
    rows = []
    for i, area in enumerate(strata.area_ids):
        for s, stratum in enumerate(strata.strata):
            row = [area, stratum, strata.population[i, s]]
            if strata.deaths is not None:
                row.append(strata.deaths[i, s])
            rows.append(row)
    header = ["area_id", "stratum", "population"]
    if strata.deaths is not None:
        header.append("deaths")
    write_table(path, header, rows)


def read_rates(path) -> tuple[list[str], np.ndarray]:
    _, strata, values = _read_floats(path, ("stratum", "rate"), required=("rate",))
    return strata, values[:, 0]


def write_rates(path, strata, rates) -> None:
    write_table(path, ("stratum", "rate"), zip(strata, np.asarray(rates, float)))


def read_extremes(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, privileged, deprived, total)``, the inputs of ICE."""
    _, ids, values = _read_floats(path, ("area_id", "privileged", "deprived", "total"),
                                  required=("privileged", "deprived"))
    return (ids, *values.T.copy())


def read_scores(path) -> tuple[list[str], np.ndarray, str]:
    """``(ids, scores, name)`` of an ``area_id,<score>`` file."""
    names, ids, values = _read_floats(path, ("area_id", "<score>"))
    return ids, values[:, 0], names[1]


def read_column(path, column) -> tuple[list[str], np.ndarray]:
    """``(ids, values)``: the first column and the numbers in ``column`` of a CSV."""
    _, ids, values = _read_floats(path, (), column=column)
    return ids, values[:, 0]


# -- chain archives ----------------------------------------------------------


_ARCHIVE_HEADER = ("chain", "iter", "param", "index", "value")
_CONFIG_KEYS = ("n_chains", "n_iter", "burn_in", "thin", "seed")


def write_archive(archive: ChainArchive, path, n_workers: int | None = None) -> None:
    """Long-format draw file, a "<path>.meta" sidecar and a "<path>.npy" cache.

    The file is never quoted, so parameter names cannot contain ``,"=#``
    or an unprintable character such as a line break. The sidecar is a
    ``key = value`` file read back by :func:`read_config`, which strips
    both sides and cuts a line at ``#``; so parameter names cannot end
    in whitespace, metadata keys and values cannot begin or end in it,
    metadata keys cannot contain ``=#`` or a line break and metadata
    values cannot contain ``#`` or a line break. The sidecar keeps only
    deterministic keys (sampler config and model identity), never wall
    time, so repeated runs are byte-identical. Values are written as
    float64. An archive that :func:`read_archive` would reject or read
    back altered raises :class:`ValidationError` before any file is
    written.

    Each (chain, parameter) block is formatted by :func:`_block_rows`,
    on up to ``n_workers`` worker processes (default: one per block up to
    the usable CPUs; 1 formats in this process), and written as it
    arrives, chain-major, so the whole file is never held in memory and
    its bytes do not depend on ``n_workers``.
    """
    path = Path(path)
    _check_archive(archive)
    iterations = archive.iterations.tolist()
    blocks = {
        name: np.stack(archive.per_chain(name)).astype(np.float64, copy=False)
        .reshape(archive.n_chains, len(iterations), -1)
        for name in archive.param_names
    }
    tasks = [(c, name, block[c], iterations)
             for c in range(archive.n_chains) for name, block in blocks.items()]
    header = (",".join(_ARCHIVE_HEADER) + "\n").encode()
    csv_digest = hashlib.sha256(header)
    with atomic_write(path, binary=True) as handle, \
            worker_map(_block_rows, tasks, n_workers) as texts:
        handle.write(header)
        for text in texts:
            csv_digest.update(text)
            handle.write(text)
    lines = [f"{key} = {getattr(archive.config, key)}" for key in _CONFIG_KEYS]
    lines += [f"param.{name} = {(archive.shape(name) or ('scalar',))[0]}"
              for name in archive.param_names]
    lines += [f"{key} = {archive.metadata[key]}" for key in sorted(archive.metadata)
              if key != "wall_time_s"]  # nondeterministic, stays in memory only
    meta = "".join(line + "\n" for line in lines).encode()
    with atomic_write(str(path) + ".meta", binary=True) as handle:
        handle.write(meta)
    digests = np.stack([np.frombuffer(digest.digest(), np.uint8)
                        for digest in (csv_digest, hashlib.sha256(meta))])
    # the values in the order read_archive fills them, each NaN as the parse reads it
    values = np.concatenate([block.ravel() for block in blocks.values()])
    values[np.isnan(values)] = np.nan
    with atomic_write(str(path) + ".npy", binary=True) as handle:
        for array in (digests, archive.iterations.astype(np.int64), values):
            np.save(handle, array)


def _block_rows(task) -> bytes:
    """The UTF-8 archive rows of one ``(chain, name, draws, iterations)`` block."""
    c, name, draws, iterations = task
    heads = [f"{c},{iteration},{name}," for iteration in iterations]
    tails = [f"{idx}," for idx in range(draws.shape[1])]
    text = "".join(
        [f"{head}{tail}{value!r}\n" for head, row in zip(heads, draws.tolist())
         for tail, value in zip(tails, row)]
    )
    return text.replace(",nan\n", ",\n").encode()  # NaN is an empty cell


def _check_archive(archive: ChainArchive) -> None:
    names, meta = archive.param_names, archive.metadata
    n_draws = archive.n_retained
    checks = [
        ('parameter names {} contain one of , " = # or an unprintable character '
         "such as a line break",
         [n for n in names if set(n) & set(',"=#') or not n.isprintable()]),
        ("parameter names {} end in whitespace", [n for n in names if n != n.rstrip()]),
        ("parameters {} hold more than one vector per draw",
         [n for n in names if len(archive.shape(n)) > 1]),
        (f"parameters {{}} do not hold one draw for each of the {n_draws} iterations",
         [n for n in names if archive.chains[0][n].shape[0] != n_draws]),
        ("metadata keys {} contain one of = # or a line break",
         [k for k in meta if set(k) & set("=#\n\r")]),
        ("metadata keys {} begin or end in whitespace", [k for k in meta if k != k.strip()]),
        ("metadata keys {} are reserved for the sampler config and the parameters",
         [k for k in meta if k in _CONFIG_KEYS or k.startswith("param.")]),
        ("metadata values of {} contain # or a line break",
         [k for k, v in meta.items() if set(str(v)) & set("#\n\r")]),
        ("metadata values of {} begin or end in whitespace",
         [k for k, v in meta.items() if str(v) != str(v).strip()]),
    ]
    for message, bad in checks:
        if bad:
            raise ValidationError(message.format(bad))
    if not names or n_draws == 0:
        raise ValidationError("archive holds no parameters or no retained draws")
    if len(np.unique(archive.iterations)) < n_draws:
        raise ValidationError("archive iteration stamps repeat")


def _digests(path) -> np.ndarray:
    """SHA-256 of the archive and of its sidecar, one row each."""
    rows = []
    for name in (path, str(path) + ".meta"):
        digest = hashlib.sha256()
        with open(name, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        rows.append(np.frombuffer(digest.digest(), np.uint8))
    return np.stack(rows)


def read_archive(path) -> ChainArchive:
    """Read an archive as one table, rows in any order.

    The sidecar lists every parameter and its width, and the file must
    hold exactly one row for each chain, iteration, parameter and index.
    Chain 0 fixes the draw order by first appearance; an empty value is
    NaN. Anything else raises :class:`SchemaError` naming the file and,
    where one exists, the line. The draws come from the "<path>.npy"
    cache instead when it holds digests of both files as they are now.
    """
    path = Path(path)
    meta = read_config(str(path) + ".meta")
    try:
        config = McmcConfig(**{key: int(meta.pop(key)) for key in _CONFIG_KEYS})
        shapes = {key[6:]: meta.pop(key) for key in sorted(meta) if key.startswith("param.")}
        width = np.array([1 if shape == "scalar" else int(shape) for shape in shapes.values()])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}.meta: missing or malformed entry: {exc}") from None
    if not shapes:
        raise SchemaError(f"{path}.meta: no param.<name> entries")
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    cached = _read_cache(path, int(width.sum()))
    n_chains, order, values = cached or _parse_archive(path, list(shapes), width)
    offsets = np.cumsum(np.concatenate(([0], n_chains * len(order) * width)))
    chains = [{} for _ in range(n_chains)]
    for (name, shape), block, w in zip(shapes.items(), np.split(values, offsets[1:-1]), width):
        for c, draws in enumerate(block.reshape(n_chains, len(order), w)):
            chains[c][name] = draws[:, 0] if shape == "scalar" else draws
    return ChainArchive(chains, order, config, metadata=meta)


def _read_cache(path, per_draw):
    """``(n_chains, order, values)`` from "<path>.npy", or None when the
    cache is missing, unreadable, the wrong shape or stale."""
    try:
        with open(str(path) + ".npy", "rb") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            digests, order, values = [np.load(handle, allow_pickle=False) for _ in range(3)]
        draws = order.size * per_draw
        fits = (digests.dtype == np.uint8 and digests.shape == (2, 32)
                and order.dtype == np.int64 and order.ndim == 1
                and values.dtype == np.float64 and values.ndim == 1
                and draws > 0 and values.size > 0 and values.size % draws == 0)
    except Exception:  # a damaged header alone can raise ValueError, TypeError,
        return None  # SyntaxError, EOFError, MemoryError or tokenize.TokenError
    if not (fits and np.array_equal(digests, _digests(path))):
        return None
    return values.size // draws, order, values


def _parse_archive(path, names, width):
    """``(n_chains, order, values)`` parsed from the CSV, every row checked."""
    # one character wider than any listed name, so that no longer name matches
    names = np.array(names, dtype=f"U{max(map(len, names)) + 1}")
    dtype = np.dtype([("chain", "i8"), ("iter", "i8"), ("param", names.dtype),
                      ("index", "i8"), ("value", "f8")])
    with open(path, encoding="utf-8") as handle:
        _require_header(path, handle.readline().rstrip("\n").split(","), _ARCHIVE_HEADER)
        # an empty value cell is a missing draw, which the float parser spells "nan"
        lines = (line.replace(",\n", ",nan\n") for line in handle)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file without rows
                rows = np.loadtxt(lines, dtype, comments=None, delimiter=",", ndmin=1)
        except ValueError:
            why = "expected 5 cells: integer chain, iter and index, a name and a number"
            raise _archive_error(path, why) from None
    chain, iteration, index = rows["chain"], rows["iter"], rows["index"]
    stamps, first = np.unique(iteration[chain == 0], return_index=True)
    if len(stamps) == 0:
        raise SchemaError(f"{path}: no rows for chain 0")
    k = np.minimum(np.searchsorted(names, rows["param"]), len(names) - 1)
    at = np.minimum(np.searchsorted(stamps, iteration), len(stamps) - 1)
    fits = (names[k] == rows["param"]) & (stamps[at] == iteration)
    fits &= (chain >= 0) & (index >= 0) & (index < width[k])
    if not fits.all():
        why = "param not in the .meta file, chain or index out of range, or iter not in chain 0"
        raise _archive_error(path, why, int(np.argmin(fits)))
    n_chains, n_draws, order = int(chain.max()) + 1, len(stamps), stamps[np.argsort(first)]
    draw = np.argsort(np.argsort(first))[at]  # place of each row's iter in chain-0 order
    offsets = np.cumsum(np.concatenate(([0], n_chains * n_draws * width)))
    cell = offsets[k] + (chain * n_draws + draw) * width[k] + index
    filled = np.bincount(cell, minlength=offsets[-1])
    if filled.max() > 1:
        repeat = np.flatnonzero(cell == cell[np.argmax(filled[cell] > 1)])[1]
        raise _archive_error(path, "duplicate chain, iter, param and index", int(repeat))
    if filled.min() == 0:
        p = int(np.searchsorted(offsets, filled.argmin(), side="right")) - 1
        c, s, idx = np.unravel_index(filled.argmin() - offsets[p], (n_chains, n_draws, width[p]))
        raise SchemaError(
            f"{path}: no row for chain {c}, iter {order[s]}, param {names[p]}, index {idx}"
        )
    values = np.empty(offsets[-1])
    values[cell] = rows["value"]
    return n_chains, order, values


def _archive_error(path, why, row=None) -> SchemaError:
    """Name the line of parsed row ``row`` (blank lines hold none) or,
    without ``row``, the first line that does not parse."""
    with open(path, encoding="utf-8") as handle:
        lines = ((n, line.rstrip()) for n, line in enumerate(handle, 1) if n > 1 and line != "\n")
        for r, (lineno, line) in enumerate(lines):
            if r == row or (row is None and not _archive_row_parses(line.split(","))):
                return SchemaError(f"{path}:{lineno}: {why}: {line!r}")
    return SchemaError(f"{path}: {why}")


def _archive_row_parses(cells) -> bool:
    try:
        int(cells[0]), int(cells[1]), int(cells[3]), float(cells[4] or "nan")
    except (ValueError, IndexError):
        return False
    return len(cells) == len(_ARCHIVE_HEADER)


def read_config(path) -> dict[str, str]:
    """Plain-text ``key = value`` file; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"{path}: file not found")
    out = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
