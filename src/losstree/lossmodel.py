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


def sample_feasible(tree: LogicalTree, y, rng, size: int | None = None) -> np.ndarray:
    """Draw solutions from the feasible polytope of y = A x, x >= 0.

    Internal links are sampled top down, each uniformly within the slack
    its ancestors leave on the tightest path below it; leaves take the
    remainder.  Covers the polytope interior (not uniformly).  ``y`` is (m,)
    with one ``np.random.Generator``, or (B, m) with a sequence of B of them,
    row r drawing from ``rng[r]`` as a call on that row alone would.  One
    row gives one (n,) solution, or with ``size`` a (size, n) array whose
    rows equal ``size`` successive single draws; B rows give (B, n) or
    (B, size, n).  Each draw takes its uniforms in order of depth, then
    label; they are scaled in one pass over the internal labels (preorder,
    so every father comes first) that handles all rows and draws at once.
    """
    y = _checked(y, tree.m, "paths", batch=True)
    if not (size is None or (_is_int(size) and size >= 0)):
        raise ParameterOutOfRange(f"size must be a whole number of at least 0, got {size!r}")
    if y.ndim == 1:
        rngs = [rng]
    elif isinstance(rng, (list, tuple)) and len(rng) == len(y):
        rngs = rng
    else:
        raise ParameterOutOfRange(f"need one generator for each of the {len(y)} rows of y")
    for g in rngs:
        if not isinstance(g, np.random.Generator):
            raise ParameterOutOfRange(f"need a numpy random Generator, got {g!r}")
    m, parent = tree.m, tree.parent
    ys = y.reshape(-1, m)
    gamma = tree.span_min(ys).T[:, :, None]  # the tightest path below each link, (n, B, 1)
    draws = 1 if size is None else size
    u = np.empty((tree.n - m, len(ys), draws))
    uniforms = np.reshape([g.random((draws, tree.n - m)) for g in rngs], u.shape[1:] + u.shape[:1])
    u[np.argsort(tree.depth[m + 1 :], kind="stable")] = uniforms.transpose(2, 0, 1)
    z = np.zeros((tree.n + 1, len(ys), draws))  # loss on the root-to-node path, node included
    x = np.empty((tree.n, len(ys), draws))
    for v, p, g in zip(range(m + 1, tree.n + 1), parent[m + 1 :].tolist(), gamma[m:]):
        # rng.uniform(0, c) draws c * rng.random()
        x[v - 1] = u[v - m - 1] * np.maximum(g - z[p], 0.0)
        z[v] = z[p] + x[v - 1]
    x[:m] = np.maximum(ys.T[:, :, None] - z[parent[1 : m + 1]], 0.0)
    x = x.transpose(1, 2, 0).copy()  # C order: each draw is contiguous and sums like a single one
    if size is None:
        x = x[:, 0]
    return x[0] if y.ndim == 1 else x


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

    A long JSON file in the layout ``save_observations`` writes (or a bare
    array in that spelling) is read from its bytes by ``_number_tokens``;
    every other JSON file goes through ``json.loads``, to the same values
    and errors.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        scale, values = _bulk_observations(text) or _json_observations(text)
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


def _json_observations(text: str):
    """The scale and values of any JSON observation file, by ``json.loads``."""
    data = _load_json(text, "observation file")
    if isinstance(data, list):
        data = {"y": data}
    y = data.get("y")
    # JSON numbers decode to int or float; true/false (bool), strings and
    # nested values are not observations.
    if not isinstance(y, list) or not set(map(type, y)) <= {int, float}:
        raise OutOfDomain('observations must be a list of numbers, bare or as "y"')
    try:
        return data.get("scale", "addloss"), np.array(y, dtype=float)
    except OverflowError:
        raise OutOfDomain("observations must be finite") from None


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise OutOfDomain(f"{what} nests JSON too deeply") from None


# A JSON file shorter than this goes to json.loads whatever its layout.  The byte read
# costs some 40 numpy calls whatever the size; on mostly-zero files it first wins at
# about 2000 chars (bytes/json time: interval files 1.25 at 1643 chars, 1.00 at 2151,
# 0.96 at 2936; observation arrays 1.23 at 1094, 0.98 at 1725), on interval files of
# mostly nonzero bounds at about 9000 (1.10 at 6512, 0.92 at 8479, 1.01 at 10498,
# 0.87 at 13154).  BENCH_31.json in_process.json_crossing.
FEW_JSON_CHARS = 2048
# Bytes a JSON number may hold; deleting them from a file leaves its skeleton.
_NUMBER_BYTES = b"+-.0123456789Ee"
_NUMBER_MASK = bytes(byte in _NUMBER_BYTES for byte in range(256))  # a translate table to 0/1
_OPENS_SLOT, _CLOSES_SLOT = np.zeros((2, 256), dtype=bool)
_OPENS_SLOT[list(b" [")] = True
_CLOSES_SLOT[list(b",]}")] = True
# The heads of the observation files save_observations writes; a bare array has none.
_SCALE_HEADS = (('{"scale": "addloss", "y": ', "addloss"),
                ('{"scale": "probability", "y": ', "probability"))


def _bulk_observations(text: str):
    """(scale, values) of a file in the layout ``save_observations`` writes, else None.

    A bare array of numbers in that spelling is read too.  The byte read costs
    time per char and saves it per zero, so an array with fewer than one zero
    per 12 chars is left to json (bytes/json time for 3000 values: 1.03 at
    13.8 chars per zero, 0.82 at 9.8).
    """
    scale, body = "addloss", text.removesuffix("\n")
    for head, name in _SCALE_HEADS:
        if body.startswith(head) and body.endswith("}"):
            scale, body = name, body[len(head) : -1]  # the "y" array
    if 12 * body.count(" 0.0,") < len(body):
        return None
    found = _number_tokens(body, _array_slots)
    values = None if found is None else _number_values(body, *found)
    return None if values is None else (scale, values)


def _array_slots(skeleton: bytes):
    """How many numbers a JSON array of this skeleton holds, in json.dump's spelling, or None."""
    gaps = len(skeleton) // 2 - 1  # one ", " between each two numbers
    return gaps + 1 if skeleton == b"[" + b", " * gaps + b"]" else None


def _number_tokens(text: str, slots):
    """(data, start, end): the bytes of ``text`` and bounds of its numbers, if in a package layout.

    ``slots`` takes the text's skeleton (its bytes less the number bytes and one
    final newline) and gives how many numbers the layout puts in it, or None if
    the skeleton is not the layout's.  Each maximal run of number bytes must then
    fill one slot: a gap that " " or "[" opens and "," "]" or "}" closes, which
    the package's layouts hold only where a value goes.  So runs inside a key,
    a string or the spacing leave the file to ``json.loads``.  Returns None for
    a file shorter than ``FEW_JSON_CHARS``, one that is not ASCII, or one not in
    the layout.
    """
    if len(text) < FEW_JSON_CHARS or not text.isascii():
        return None
    raw = text.encode("ascii")
    count = slots(raw.translate(None, _NUMBER_BYTES).removesuffix(b"\n"))
    if count is None or raw[0] in _NUMBER_BYTES or raw[-1] in _NUMBER_BYTES:  # runs pair up
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    is_number = np.frombuffer(raw.translate(_NUMBER_MASK), dtype=bool)
    start, end = (np.flatnonzero(np.diff(is_number)) + 1).reshape(-1, 2).T
    if len(start) != count or not (_OPENS_SLOT.take(data.take(start - 1))
                                   & _CLOSES_SLOT.take(data.take(end))).all():
        return None
    return data, start, end


def _number_values(text: str, data, start, end):
    """The floats of the number tokens ``text[start:end]``, or None where json rejects one.

    A token spelled exactly "0.0" is 0.0.  Every other token goes through one
    ``json.loads`` of those tokens alone, so its value, grammar and limits are
    json's: a token json rejects, or an int beyond float, gives None.
    """
    zero = ((end - start == 3) & (data.take(start) == 48) & (data.take(start + 1) == 46)
            & (data.take(start + 2, mode="clip") == 48))
    values = np.zeros(len(start))
    rest = np.flatnonzero(~zero)
    if len(rest):
        tokens = ",".join([text[a:b] for a, b in zip(start[rest].tolist(), end[rest].tolist())])
        try:
            values[rest] = np.array(json.loads(f"[{tokens}]"), dtype=float)
        except (ValueError, OverflowError):
            return None
    return values


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
