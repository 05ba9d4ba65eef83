"""Channel file formats shared by the CLI, and the layout of its witness files.

Channel files are read here and produced as text; ``bidmc.cli.main`` writes
every file.

Channel JSON:   {"particles": [{"sigma": 0.1, "q": 0.5}, ...]}
Channel CSV:    header ``sigma,q`` then one particle per line
Transition JSON: {"transition_matrix": [[...], [...]]} with two row-
                 stochastic rows P(y|0), P(y|1); must describe a symmetric
                 channel, which is reduced to its canonical BSC mixture.
Witness JSON:   {"rows": m, "cols": n, "k": [[...], ...]}, written from
                ``OneMatrix.to_json_dict``

No command reads or writes a plan file: a degrade report carries its plan's
cuts.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .channel import Channel, canonicalize


class ChannelFormatError(ValueError):
    """Raised with a line/field diagnostic for malformed channel files."""


def _canonical(raw) -> Channel:
    """``canonicalize``, its validation errors raised as ChannelFormatError."""
    try:
        return canonicalize(raw)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def _json_text(data) -> str:
    """The one JSON layout of every file and report: sorted keys, indent 2,
    a final newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def channel_to_json_dict(chan: Channel) -> dict:
    return {"particles": [{"sigma": p.sigma, "q": p.weight} for p in chan.particles]}


def channel_to_csv(chan: Channel) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sigma", "q"])
    for p in chan.particles:
        writer.writerow([repr(p.sigma), repr(p.weight)])
    return buf.getvalue()


def reduce_transition_matrix(rows: list[list[float]], tol: float = 1e-9) -> Channel:
    """Collapse a 2 x N symmetric transition matrix to its BSC mixture.

    Output y with likelihoods (a, b) = (P(y|0), P(y|1)) carries probability
    (a + b)/2 and conditional crossover b/(a + b); ``canonicalize`` folds
    these outputs about 1/2 into the particles.  Asymmetric profiles, paired
    within ``tol`` after sorting, are rejected, and so is any input that is
    not two equal-length rows of finite numbers.
    """
    try:
        mat = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ChannelFormatError(
            "transition_matrix must be rows of numbers of equal length"
        ) from exc
    if mat.ndim != 2 or mat.shape[0] != 2:
        raise ChannelFormatError("transition_matrix must have exactly two rows")
    if not np.isfinite(mat).all():
        raise ChannelFormatError("transition probabilities must be finite")
    if np.any(mat < -tol):
        raise ChannelFormatError("transition probabilities must be nonnegative")
    sums = mat.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise ChannelFormatError(f"transition rows sum to {sums.tolist()}, not 1")
    mat = np.maximum(mat, 0.0)  # entries within tol below 0 count as 0
    outputs = []
    for a, b in mat.T:
        mass = (a + b) / 2.0
        if mass > 0.0:
            outputs.append((b / (a + b), mass))
    # Outputs whose crossovers agree within tol form one profile atom; the
    # profile is symmetric when the k-th atoms from either end pair up.
    atoms: list[list[float]] = []
    for eps, mass in sorted(outputs):
        if atoms and eps - atoms[-1][0] <= tol:
            atoms[-1][1] += mass
        else:
            atoms.append([eps, mass])
    for (eps, mass), (e_mirror, mirror) in zip(atoms, reversed(atoms)):
        if abs(eps + e_mirror - 1.0) > tol or abs(mass - mirror) > tol:
            raise ChannelFormatError(
                f"LR-profile asymmetric at {eps}: mass {mass} vs {mirror} at {e_mirror}"
            )
    return _canonical(outputs)


def parse_channel_json(text: str) -> Channel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"line {exc.lineno}: {exc.msg}") from exc
    if isinstance(data, dict) and "transition_matrix" in data:
        return reduce_transition_matrix(data["transition_matrix"])
    if not isinstance(data, dict) or "particles" not in data:
        raise ChannelFormatError('missing "particles" key')
    if not isinstance(data["particles"], list):
        raise ChannelFormatError('"particles" must be a list')
    raw = []
    for idx, entry in enumerate(data["particles"]):
        # float() would read a JSON boolean as 0 or 1, and a list or string
        # entry would fail on indexing with a message that names no form.
        numbers = isinstance(entry, dict) and not any(
            isinstance(entry.get(key), bool) for key in ("sigma", "q")
        )
        if not numbers:
            raise ChannelFormatError(
                f'particle {idx}: expected {{"sigma": number, "q": number}}, got {json.dumps(entry)}'
            )
        try:
            raw.append((float(entry["sigma"]), float(entry["q"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(f"particle {idx}: {exc}") from exc
    return _canonical(raw)


def parse_channel_csv(text: str) -> Channel:
    reader = csv.reader(_io.StringIO(text))
    rows = [row for row in reader]
    if not rows or [c.strip() for c in rows[0][:2]] != ["sigma", "q"]:
        raise ChannelFormatError("line 1: expected header 'sigma,q'")
    raw = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise ChannelFormatError(f"line {lineno}: expected two columns")
        try:
            raw.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ChannelFormatError(f"line {lineno}: {exc}") from exc
    return _canonical(raw)


def _is_csv(path: Path) -> bool:
    """The one suffix rule of channel files: CSV for ``.csv`` in any case,
    JSON otherwise."""
    return path.suffix.lower() == ".csv"


def load_channel(path: str | Path) -> Channel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ChannelFormatError(f"not UTF-8 text: {exc}") from exc
    if _is_csv(path):
        return parse_channel_csv(text)
    return parse_channel_json(text)


def _channel_text(chan: Channel, path: str | Path) -> str:
    """A channel file's text, in the format ``load_channel`` reads back from ``path``."""
    return channel_to_csv(chan) if _is_csv(Path(path)) else _json_text(channel_to_json_dict(chan))
