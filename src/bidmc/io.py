"""Channel, plan and witness file formats shared by the CLI.

Channel JSON:   {"particles": [{"sigma": 0.1, "q": 0.5}, ...]}
Channel CSV:    header ``sigma,q`` then one particle per line
Transition JSON: {"transition_matrix": [[...], [...]]} with two row-
                 stochastic rows P(y|0), P(y|1); must describe a symmetric
                 channel, which is reduced to its canonical BSC mixture.
Witness JSON:   {"rows": m, "cols": n, "k": [[...], ...]}
Plan JSON:      {"cuts": [...]} or {"indices": [...], "splits": [...]}
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .channel import Channel, InvalidDistributionError, canonicalize

__all__ = [
    "ChannelFormatError",
    "load_channel",
    "parse_channel_json",
    "parse_channel_csv",
    "channel_to_json_dict",
    "channel_to_csv",
    "reduce_transition_matrix",
]


class ChannelFormatError(ValueError):
    """Raised with a line/field diagnostic for malformed channel files."""


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
    (a + b)/2 and conditional crossover b/(a + b); folding the LR-profile
    about 1/2 gives the particles.  Asymmetric profiles, paired within
    ``tol`` after sorting, are rejected.
    """
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != 2:
        raise ChannelFormatError("transition_matrix must have exactly two rows")
    if np.any(mat < -tol):
        raise ChannelFormatError("transition probabilities must be nonnegative")
    sums = mat.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise ChannelFormatError(f"transition rows sum to {sums.tolist()}, not 1")
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
    raw = [(min(eps, 1.0 - eps), mass) for eps, mass in outputs]
    return canonicalize(raw)


def parse_channel_json(text: str) -> Channel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"line {exc.lineno}: {exc.msg}") from exc
    if isinstance(data, dict) and "transition_matrix" in data:
        return reduce_transition_matrix(data["transition_matrix"])
    if not isinstance(data, dict) or "particles" not in data:
        raise ChannelFormatError('missing "particles" key')
    raw = []
    for idx, entry in enumerate(data["particles"]):
        try:
            raw.append((float(entry["sigma"]), float(entry["q"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ChannelFormatError(f"particle {idx}: {exc}") from exc
    try:
        return canonicalize(raw)
    except (InvalidDistributionError, ValueError) as exc:
        raise ChannelFormatError(str(exc)) from exc


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
    try:
        return canonicalize(raw)
    except (InvalidDistributionError, ValueError) as exc:
        raise ChannelFormatError(str(exc)) from exc


def load_channel(path: str | Path) -> Channel:
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return parse_channel_csv(text)
    return parse_channel_json(text)
