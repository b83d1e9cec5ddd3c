"""Additive loss transform and the linear observation model on a tree.

Link loss probabilities b_k in [0, 1) map through the addloss transform
x_k = -log(1 - b_k) to non-negative additive quantities, so that the path
observation vector satisfies y = A x for the tree's measurement matrix A.
Zero addloss means zero loss.  All solvers in this package work on the
addloss scale.

The system is underdetermined: fixing the internal-link values x_I leaves
the leaf values forced to x_R = y - A_I x_I, which is feasible exactly
when every component stays non-negative.  Setting x_I = 0 gives the
receiver solution, feasible for any observation.
"""

import json

import numpy as np

from .errors import Infeasible, OutOfDomain, ParameterOutOfRange, _check_seed, _is_int
from .topology import LogicalTree

# A value is classified lossy iff it exceeds DEFAULT_TOL; shared by the
# l0 counting and feasibility checks across the package.
DEFAULT_TOL = 1e-9

# Planted rows (census and baseline trials, experiment repetitions) come from
# _planted_blocks in blocks of at most this many link values, so memory stays bounded
# however many rows a large tree gets (closed_form's sparse table is about log2 m blocks).
BLOCK_LINKS = 2**16


def addloss(b) -> np.ndarray:
    """Map loss probabilities in [0, 1) to addloss units, elementwise."""
    b = np.asarray(b, dtype=float)
    if not np.all((b >= 0) & (b < 1)):  # NaN fails both comparisons
        raise OutOfDomain("loss probabilities must lie in [0, 1)")
    return -np.log1p(-b)


def inverse_addloss(x) -> np.ndarray:
    """Map addloss values in [0, inf] back to loss probabilities."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):  # NaN fails; inf maps to 1
        raise OutOfDomain("addloss values must be non-negative")
    return -np.expm1(-x)


def forward(tree: LogicalTree, x) -> np.ndarray:
    """Path observations y_j = sum of x over the links on path j, for (n,) or (B, n) x.

    Each path's links form one C-contiguous (B, L) block summed along its rows, so every
    row of a batch equals the call on that row alone, bit for bit (numpy's pairwise order).
    """
    x = _checked(x, tree.n, "links", batch=True)
    padded = np.zeros(x.shape[:-1] + (tree.n + 1,))
    padded[..., 1:] = x  # column v holds link v
    return np.stack([padded.take(path, axis=-1).sum(axis=-1) for path in tree.paths], axis=-1)


def receiver_solution(tree: LogicalTree, y) -> np.ndarray:
    """The solution that puts all loss on the leaf links: x_R = y, x_I = 0."""
    y = _checked(y, tree.m, "paths")
    x = np.zeros(tree.n)
    x[: tree.m] = y
    return x


def general_solution(tree: LogicalTree, x_internal, y):
    """Solution with the given internal-link values; leaf values are forced.

    The leaf values are x_R = y - A_I x_I, the path sums of x while its
    leaf entries are still zero.  Raises Infeasible if some leaf value
    would drop below -DEFAULT_TOL, i.e. the internal assignment lies
    outside the feasible polytope for this y.
    """
    y = _checked(y, tree.m, "paths")
    x = np.zeros(tree.n)
    x[tree.m :] = _checked(x_internal, tree.n - tree.m, "internal links")
    leaf = y - forward(tree, x)
    short = np.flatnonzero(leaf < -DEFAULT_TOL)
    if short.size:
        j = int(short[0]) + 1
        raise Infeasible(f"internal values overshoot path {j}: leaf value {leaf[j - 1]:.3g}")
    x[: tree.m] = leaf
    return x


def is_feasible(tree: LogicalTree, x, y) -> bool:
    """True iff x >= -DEFAULT_TOL componentwise and the path sums match y within it."""
    x = _checked(x, tree.n, "links")
    y = _checked(y, tree.m, "paths")
    if x.min() < -DEFAULT_TOL:
        return False
    return np.abs(forward(tree, x) - y).max() <= DEFAULT_TOL


def sample_feasible(
    tree: LogicalTree, y, rng: "np.random.Generator", size: int | None = None
) -> np.ndarray:
    """Draw solutions from the feasible polytope of y = A x, x >= 0.

    Internal links are sampled top down, each uniformly within the slack
    its ancestors leave on the tightest path below it; leaves take the
    remainder.  Covers the polytope interior (not uniformly).  Returns one
    (n,) solution, or with ``size`` a (size, n) array whose rows equal
    ``size`` successive single draws.  Each draw takes its uniforms in
    order of depth, then label; they are scaled in one pass over the
    internal labels (preorder, so every father comes first) that handles
    all draws at once.
    """
    y = _checked(y, tree.m, "paths")
    if not (size is None or (_is_int(size) and size >= 0)):
        raise ParameterOutOfRange(f"size must be a whole number of at least 0, got {size!r}")
    m, parent = tree.m, tree.parent
    gamma = tree.span_min(y)  # the tightest path below each link
    draws = 1 if size is None else size
    u = np.empty((tree.n - m, draws))
    u[np.argsort(tree.depth[m + 1 :], kind="stable")] = rng.random((draws, tree.n - m)).T
    z = np.zeros((tree.n + 1, draws))  # loss assigned on the root-to-node path, node included
    x = np.empty((tree.n, draws))
    for v, p, g in zip(range(m + 1, tree.n + 1), parent[m + 1 :].tolist(), gamma[m:].tolist()):
        # rng.uniform(0, c) draws c * rng.random()
        x[v - 1] = u[v - m - 1] * np.maximum(g - z[p], 0.0)
        z[v] = z[p] + x[v - 1]
    x[:m] = np.maximum(y[:, None] - z[parent[1 : m + 1]], 0.0)
    x = x.T.copy()  # C order: each row is contiguous and sums like a single draw
    return x[0] if size is None else x


DEFAULT_LOSS_RANGE = (0.01, 0.10)  # planted hotspot losses unless a range is given


def plant_hotspots(tree: LogicalTree, K: int, loss_range, seed, key, sup=None) -> np.ndarray:
    """Loss probabilities with K lossy links, from the substream (seed, K, key).

    The lossy links are drawn first, unless ``sup`` fixes them, and then
    their losses, uniform in ``loss_range``.  Every instance stream of the
    census, the experiment and the baseline comparison comes from here.
    A whole-number ``key`` gives one (n,) row, and ``sup`` is then one (K,)
    support.  A sequence of B keys, such as ``range(start, stop)``, gives
    (B, n) rows, row r bit-equal to the call with ``key[r]``, and ``sup``
    is then (B, K).  The arguments are checked once per call; only each
    row's stream is drawn per row.  A given support needs K distinct link
    indices in 0..n-1 per row.
    """
    try:
        lo, hi = loss_range
        valid = 0 < lo <= hi < 1
    except (TypeError, ValueError):  # not a pair, or not of numbers
        valid = False
    if not valid:
        raise ParameterOutOfRange(f"loss range must satisfy 0 < lo <= hi < 1, got {loss_range!r}")
    if not (_is_int(K) and 0 <= K <= tree.n):
        raise ParameterOutOfRange(f"K={K!r} is not a whole number in 0..n={tree.n}")
    _check_seed(seed, streams=False)
    single = _is_int(key)
    try:
        keys = [key] if single else list(key)
    except TypeError:  # neither a whole number nor a sequence
        keys = [key]
    if not all(_is_int(k) and k >= 0 for k in keys):
        raise ParameterOutOfRange(f"keys must be whole numbers of at least 0, got {key!r}")
    if sup is not None:
        sup = _checked_support(sup, (K,) if single else (len(keys), K), tree.n)
        sup = sup.reshape(len(keys), K)
    b = np.zeros((len(keys), tree.n))
    for r, k in enumerate(keys):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(K, k)))
        links = rng.choice(tree.n, size=K, replace=False) if sup is None else sup[r]
        b[r][links] = rng.uniform(lo, hi, size=K)  # through the row view: cheaper than b[r, links]
    return b[0] if single else b


def _planted_blocks(tree: LogicalTree, K: int, loss_range, seed, count: int, sup=None):
    """Yield (keys, rows) per block: a range within 0..count-1 and its ``plant_hotspots`` rows."""
    block = max(1, BLOCK_LINKS // tree.n)
    for start in range(0, count, block):
        keys = range(start, min(start + block, count))
        sub = None if sup is None else sup[keys.start : keys.stop]
        yield keys, plant_hotspots(tree, K, loss_range, seed, keys, sub)


def _checked_support(sup, shape: tuple, n: int) -> np.ndarray:
    """``sup`` as integer link indices shaped ``shape``, K distinct ones in 0..n-1 per row."""
    try:
        sup = np.asarray(sup)
        valid = sup.shape == shape and (sup.size == 0 or np.issubdtype(sup.dtype, np.integer))
    except ValueError:  # ragged rows
        valid = False
    if not valid:
        raise ParameterOutOfRange(f"the support must be {shape} link indices")
    sup = sup.astype(np.int64)  # an empty list reads as floats
    ordered = np.sort(sup, axis=-1)
    if sup.size and (ordered.min() < 0 or ordered.max() >= n
                     or (np.diff(ordered, axis=-1) == 0).any()):
        raise ParameterOutOfRange(f"each support needs distinct link indices in 0..{n - 1}")
    return sup


def save_observations(y, path, scale: str = "addloss") -> None:
    """Write a JSON observation file: {"scale": ..., "y": [...]}."""
    if scale not in ("addloss", "probability"):
        raise OutOfDomain(f"unknown scale {scale!r}")
    y = _checked(y, None, "paths")
    values = y if scale == "addloss" else inverse_addloss(y)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"scale": scale, "y": [float(v) for v in values]}, fh)
        fh.write("\n")


def load_observations(path) -> np.ndarray:
    """Read observations in addloss units from a JSON or text file.

    JSON files hold either a bare array (addloss scale) or an object
    {"scale": "addloss"|"probability", "y": [...]}.  Text files hold one
    ``y <path> <value>`` line per path, after an optional ``scale <name>``
    header; '#' starts a comment.  A path or value holding "_" is not read
    (Python would take "0_1" as 1).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        data = _load_json(text, "observation file")
        if isinstance(data, list):
            data = {"y": data}
        scale = data.get("scale", "addloss")
        y = data.get("y")
        # JSON numbers decode to int or float; true/false (bool), strings and
        # nested values are not observations.
        if not isinstance(y, list) or not set(map(type, y)) <= {int, float}:
            raise OutOfDomain('observations must be a list of numbers, bare or as "y"')
        try:
            values = np.array(y, dtype=float)
        except OverflowError:
            raise OutOfDomain("observations must be finite") from None
    else:
        scale = "addloss"
        entries = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "scale" and len(parts) == 2:
                scale = parts[1]
                continue
            try:
                if parts[0] != "y" or len(parts) != 3 or "_" in parts[1] + parts[2]:
                    raise ValueError
                j, value = int(parts[1]), float(parts[2])
            except ValueError:
                raise OutOfDomain(f"line {lineno}: unrecognized line {line!r}") from None
            entries.append((j, value))
        values = np.array(_in_path_order(entries, "observation file"))
    if not np.all(np.isfinite(values)):
        raise OutOfDomain("observations must be finite")
    if scale == "probability":
        return addloss(values)
    if scale != "addloss":
        raise OutOfDomain(f"unknown scale {scale!r}")
    if np.any(values < 0):
        raise OutOfDomain("observations must be non-negative")
    return values


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise OutOfDomain(f"{what} nests JSON too deeply") from None


def _in_path_order(entries, what: str) -> list:
    """Values of (path, value) entries in path order; paths must be 1..m, once each."""
    by_path = {}
    for j, value in entries:
        if j in by_path:
            raise OutOfDomain(f"{what} lists path {j} twice")
        by_path[j] = value
    if sorted(by_path) != list(range(1, len(by_path) + 1)):
        raise OutOfDomain(f"{what} must cover paths 1..m exactly once")
    return [by_path[j] for j in sorted(by_path)]


def _checked(values, size: int, what: str, batch: bool = False) -> np.ndarray:
    """``values`` as floats, shaped (size,) or with ``batch`` (B, size), all finite.

    A ``size`` of None accepts any length.
    """
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise OutOfDomain(f"values for {what} must be numbers") from None
    if values.ndim not in ((1, 2) if batch else (1,)) or size not in (None, values.shape[-1]):
        count = "" if size is None else f"{size} "
        raise OutOfDomain(f"need values for {count}{what}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise OutOfDomain(f"values for {what} must be finite")
    return values
