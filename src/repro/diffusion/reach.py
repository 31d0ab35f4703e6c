"""Partition-local diffusion, the engine behind IC spread, RR-set
sampling, the Com-IC adoption frequencies and EPIC welfare (DESIGN.md).

Every coin is Spark's ``xxhash64(seed, *key)`` scaled to [0, 1), written
``coin(seed, *key)`` below. ``_seeded``, ``_xxh64`` and ``_unit`` port it
to NumPy one key column at a time, so that the kernels hash a prefix
shared by many coins once; the tests check the chain against Spark's.
``spark_hash`` ports Spark's ``hash``, with which EPIC puts its rows in
the order of the Spark loop it replaced."""
import numpy as np

_P1, _P2, _P3, _P4, _P5 = map(np.uint64, (
    0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5,
))


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    t = x.dtype.type
    return (x << t(r)) | (x >> t(8 * x.dtype.itemsize - r))


def _xxh64(x, h: np.ndarray, kind: str) -> np.ndarray:
    """Spark's ``XXH64.hashInt`` (``kind="int"``) or ``hashLong`` of ``x``,
    seeded ``h`` (one seed, or one per value): one step of the coin's chain.
    Works in place on its own temporaries."""
    x = np.asarray(x, np.int64).view(np.uint64)
    a, tmp = np.empty((2, *np.broadcast_shapes(x.shape, np.shape(h))), np.uint64)

    def rotl(a: np.ndarray, r: int) -> None:
        np.right_shift(a, np.uint64(64 - r), out=tmp)
        a <<= np.uint64(r)
        a |= tmp

    if kind == "int":
        np.bitwise_and(x, np.uint64(0xFFFFFFFF), out=a)
        a *= _P1
        a ^= h + (_P5 + np.uint64(4))
        r, mul, add = 23, _P2, _P3
    else:
        np.multiply(x, _P2, out=a)
        rotl(a, 31)
        a *= _P1
        a ^= h + (_P5 + np.uint64(8))
        r, mul, add = 27, _P1, _P4
    rotl(a, r)
    a *= mul
    a += add
    for shift, prime in ((33, _P2), (29, _P3)):
        np.right_shift(a, np.uint64(shift), out=tmp)
        a ^= tmp
        a *= prime
    np.right_shift(a, np.uint64(32), out=tmp)
    a ^= tmp
    return a


def _seeded(seed: int) -> np.ndarray:
    """The hash of ``seed`` from which ``coin(seed, ...)`` chains its key."""
    kind = "int" if -(2**31) <= seed < 2**31 else "long"
    return _xxh64([seed], np.full(1, 42, np.uint64), kind)


def _unit(h: np.ndarray) -> np.ndarray:
    """A chained hash as the coin's draw in [0, 1)."""
    return h.view(np.int64) / 2.0**64 + 0.5


def _murmur3(x, h: np.ndarray, kind: str) -> np.ndarray:
    """Spark's ``Murmur3_x86_32.hashInt`` or ``hashLong`` (low word, then
    high word) of ``x``, seeded ``h``."""
    x = np.asarray(x, np.int64)
    words = [x] if kind == "int" else [x, x >> 32]
    for k in words:
        k = (k & 0xFFFFFFFF).astype(np.uint32) * np.uint32(0xCC9E2D51)
        k = _rotl(k, 15) * np.uint32(0x1B873593)
        h = _rotl(h ^ k, 13) * np.uint32(5) + np.uint32(0xE6546B64)
    h = h ^ np.uint32(4 * len(words))
    h = (h ^ (h >> np.uint32(16))) * np.uint32(0x85EBCA6B)
    h = (h ^ (h >> np.uint32(13))) * np.uint32(0xC2B2AE35)
    return h ^ (h >> np.uint32(16))


def spark_hash(*cols: tuple[np.ndarray, str]) -> np.ndarray:
    """Spark's ``hash(*cols)`` (Murmur3, seed 42), the key of its hash
    partitioning, over columns of ``(values, kind)`` with ``kind`` as in
    ``_xxh64``."""
    h = np.full(1, 42, np.uint32)
    for x, kind in cols:
        h = _murmur3(x, h, kind)
    return h.view(np.int32)


def build_csr(n: int, src: np.ndarray, dst: np.ndarray, p: np.ndarray) -> tuple:
    """Forward and reverse adjacency ``(ptr, neighbour, p)`` of nodes
    0..n-1; node u's edges are ``ptr[u]:ptr[u + 1]``."""
    def by(a: np.ndarray, b: np.ndarray) -> tuple:
        order = np.argsort(a, kind="stable")
        return np.r_[0, np.cumsum(np.bincount(a, minlength=n))], b[order], p[order]
    return by(src, dst), by(dst, src)


def csr_slots(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The slots ``ptr[r]:ptr[r + 1]`` of each row ``r`` of ``rows``, concatenated."""
    size = ptr[rows + 1] - ptr[rows]
    return np.repeat(ptr[rows] + size - np.cumsum(size), size) + np.arange(size.sum())


def _out_edges(
    ptr: np.ndarray, nbr: np.ndarray, frontier: np.ndarray, n: int, hk: np.ndarray, reverse: bool,
) -> tuple:
    """Every edge out of the packed ``key * n + node`` ids in ``frontier``:
    its key, source, target, index into ``nbr`` and coin. ``hk[key]`` is
    the key's coin prefix, ``(edge_seed, key)`` hashed; the coin goes on
    with ``(u, v)``, or ``(v, u)`` when the walk is ``reverse``. A forward
    walk hashes each frontier cell's ``u`` once, for all its edges."""
    k, u = np.divmod(frontier, n)
    deg, e = ptr[u + 1] - ptr[u], csr_slots(ptr, u)
    v = nbr[e]
    h = np.repeat(hk[k] if reverse else _xxh64(u, hk[k], "long"), deg)
    k, u = np.repeat(k, deg), np.repeat(u, deg)
    h = _xxh64(u, _xxh64(v, h, "long"), "long") if reverse else _xxh64(v, h, "long")
    return k, u, v, e, _unit(h)


def reach(
    csr: tuple, keys: np.ndarray, starts: np.ndarray, *, edge_seed: int, key_type: str,
    reverse: bool = False, accept: tuple[int, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched BFS: the nodes each key (an IC possible world or an RR set)
    reaches from its start nodes in its own live-edge world.

    ``keys[i]`` starts at ``starts[i]`` (repeats are ignored). Edge (u, v)
    is live for key k iff ``coin(edge_seed, k, u, v) < p(u, v)``, also when
    ``reverse`` walks it backwards. With ``accept = (seed, q)`` a reached
    node v is kept iff ``coin(seed, k, v) < q[v]``; a rejected node is
    visited but not expanded. The visited set only grows, so the search
    ends without a cap. Returns the kept ``(keys, nodes)``, sorted.
    """
    ptr, nbr, prob = csr[1] if reverse else csr[0]
    n = len(ptr) - 1
    ukeys, kidx = np.unique(keys, return_inverse=True)
    hk = _xxh64(ukeys, _seeded(edge_seed), key_type)
    if accept is not None:
        ha = _xxh64(ukeys, _seeded(accept[0]), key_type)
    frontier = visited = np.unique(kidx * n + starts)
    kept = [visited[:0]]
    while len(frontier):
        if accept is not None:
            k, u = np.divmod(frontier, n)
            frontier = frontier[_unit(_xxh64(u, ha[k], "long")) < accept[1][u]]
        kept.append(frontier)
        k, u, v, e, c = _out_edges(ptr, nbr, frontier, n, hk, reverse)
        live = c < prob[e]
        reached = np.unique(k[live] * n + v[live])
        frontier = reached[np.isin(reached, visited, assume_unique=True, invert=True)]
        visited = np.union1d(visited, frontier)
    out = np.sort(np.concatenate(kept))
    return ukeys[out // n], out % n


def cascade(
    csr: tuple, scen: np.ndarray, starts: np.ndarray, masks: np.ndarray, *,
    n_worlds: int, tables: np.ndarray, edge_seed: int, cap: int,
) -> tuple[tuple[np.ndarray, ...], int]:
    """Batched synchronous EPIC (§3.2): node ``starts[i]`` of scenario
    ``scen[i]`` (world ``scen[i] % n_worlds``) desires ``masks[i]``. Each
    superstep, nodes whose adoption changed send it along out-edges live in
    their world (``coin(edge_seed, world, u, v) < p``); a receiver ORs the
    masks into its desire and adopts ``a | tables[w, desire]`` from a 2-D
    g-table or ``tables[w, desire, a]`` from a 3-D pair table. Returns
    every state row as ``(scenario, node, adopt, last superstep that
    touched it or 0)``, sorted, and the supersteps run, ``cap + 1`` if
    adoptions still changed after ``cap``.

    The state is dense: cell ``i * n + v`` is node v of the i-th smallest
    scenario, and ``touched = -1`` marks a node no seed or message reached."""
    ptr, nbr, prob = csr[0]
    n = len(ptr) - 1
    uscen, local = np.unique(scen, return_inverse=True)
    world = uscen % n_worlds
    hk = _xxh64(world, _seeded(edge_seed), "int")
    desire, adopt = np.zeros((2, len(uscen) * n), np.int64)
    touched = np.full(len(desire), -1, np.int32)

    def update(ids, step):
        """Adopt from the tables at cells ``ids``; the cells whose adoption changed."""
        prev, w = adopt[ids], world[ids // n]
        adopt[ids] = prev | tables[w, desire[ids]] if tables.ndim == 2 else tables[w, desire[ids], prev]
        touched[ids] = step
        return ids[adopt[ids] != prev]

    ids = local * n + starts
    desire[ids] = masks
    frontier, step = update(ids, 0), 0
    while len(frontier) and step < cap:
        step += 1
        k, u, v, e, c = _out_edges(ptr, nbr, frontier, n, hk, reverse=False)
        live = c < prob[e]
        to = k[live] * n + v[live]
        np.bitwise_or.at(desire, to, adopt[k[live] * n + u[live]])
        frontier = update(np.unique(to), step)
    rows = np.flatnonzero(touched >= 0)
    return (uscen[rows // n], rows % n, adopt[rows], touched[rows]), step + (len(frontier) > 0)


def run_sharded(graph, kernel, keys: np.ndarray, nodes: np.ndarray, *arrays, **kw) -> list:
    """One Spark job: task i of ``defaultParallelism`` returns ``kernel(csr,
    keys[mine], nodes[mine], *(a[mine] for a in arrays), **kw)`` with
    ``mine = keys % n_shards == i``; returns the tasks' results in task
    order. Each task receives only its own shard. The kernels pack ``(key,
    node)`` as ``key * n + node``, so ``nodes`` must be ids of the graph's
    nodes."""
    if len(nodes) and not 0 <= np.min(nodes) <= np.max(nodes) < graph.n:
        raise ValueError(f"node ids must lie in [0, {graph.n}) on graph {graph.name}")
    sc, csr = graph.spark.sparkContext, graph.csr
    n_shards = sc.defaultParallelism
    shards = [[a[keys % n_shards == i] for a in (keys, nodes, *arrays)] for i in range(n_shards)]
    return sc.parallelize(shards, n_shards).map(lambda s: kernel(csr.value, *s, **kw)).collect()


def reach_spark(graph, keys, starts, **kw) -> tuple[np.ndarray, np.ndarray]:
    """``reach`` of each key in one ``run_sharded`` job, sorted by key."""
    k, v = (np.concatenate(c) for c in zip(*run_sharded(graph, reach, keys, starts, **kw)))
    order = np.argsort(k, kind="stable")
    return k[order], v[order]
