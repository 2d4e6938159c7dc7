"""Maximum-cardinality, maximum-weight matching with array state.

Edmonds' blossom algorithm with primal-dual weights in Galil's form
(J. Edmonds, Can. J. Math. 17, 1965; Z. Galil, ACM Computing Surveys
18, 1986), on m vertices relabelled 0..m-1 in order of first appearance.
Blossoms get ids m..2m-1.  The dual problem's state lives in arrays:

  * ``w2[v, w]``: twice the weight of edge (v, w), -inf off the edge set
    and on the diagonal, so ``dual[v] + dual[w] - w2[v, w]`` is twice the
    edge's slack, and +inf where there is no edge;
  * ``dual``: twice each vertex's dual u(v) at its id, each blossom's
    z(b) at its id;
  * ``inb[v]``: the top-level blossom holding vertex v (v itself when it
    is in none);
  * ``lab[b]``: the label of top-level blossom b: 0 free, 1 S, 2 T;
  * ``best[v]``, ``bslack[v]``: the S-vertex outside v's blossom whose
    edge to v has least slack, and that slack (+inf if there is none).
    Every S-vertex dual moves by the same delta, so this edge changes
    only when vertices become S or blossoms merge, while its slack moves
    by delta (v free), 2 delta (v an S-vertex) or not at all (v a
    T-vertex).  ``best`` of the free vertices gives delta2 and of the
    S-vertices delta3.

A stage labels the single vertices S and scans all of them in one
slack-matrix expression.  Each substage then takes every tight
least-slack edge at once, or, if there is none, computes
delta2/delta3/delta4 as array reductions, moves every dual and slack
together and takes the edge (or expands the T-blossom) where the least
delta occurred.  The vertices that become S update ``best`` with one
row operation.  Only the tight edges, blossom formation and expansion,
and augmentation run as Python, on lists indexed by vertex or blossom.
That Python work is O(m^3) over a run; the array work is O(m^3)
elements too, except that each new blossom rescans its vertices' rows,
O(m^4) in the worst case.

Where m is even, the first run starts from Blossom V's greedy
initialization (V. Kolmogorov, Math. Prog. Comp. 1, 43, 2009) instead of
uniform duals.  Each ``dual[v]`` starts at the vertex's largest incident
weight (u(v) at half of it), which is feasible for weights of any sign.
Then, in vertex order, each vertex still exposed lowers its dual by its
least slack, so that edge becomes tight, and takes a tight edge to
another exposed vertex if it has one.  Every slack is then >= 0 and
every matched edge tight, which is all that the stages need.  If the
stages end with a perfect matching, these duals certify it as the
maximum-weight perfect matching (Edmonds' duality for the
perfect-matching polytope), and so as the maximum-weight
maximum-cardinality matching.  If they leave a vertex exposed there is
no such certificate: that one needs every exposed vertex to hold the
same, least dual, which uniform duals keep and greedy ones do not.  The
matcher then runs again from uniform duals, as it does for odd m.

On the pair scheduler's N=32, k=4 correction peel the greedy pass
matches about 12 of each round's 16 edges, a matching runs 4.6 stages
instead of 17, and the 25 rounds take 18 ms instead of 40 ms; the 57
rounds at N=64 take 0.11 s instead of 0.25 s (medians of six fresh
processes each, on a 2-vCPU host).  A fallback costs one greedy-started
run more: of the 77 matchings made by ``dacqo scaling --max-n 100`` and
an N=16 and an N=32 ``emit-circuit``, 13 fall back, all on graphs of at
most 16 vertices, for about 1.5 ms in all.

It may take tight edges in another order than other implementations, so
where several matchings are optimal it may return another one; where
the optimum is unique (as the pair scheduler's random weights make it)
it returns that one.  The tests compare it with
``networkx.max_weight_matching(G, maxcardinality=True)``.  The pair
scheduler in ``dacqo.synthesis`` calls it once per peeled round.
"""

from __future__ import annotations

import numpy as np

__all__ = ["max_weight_matching"]

_INF = float("inf")
# dual change per unit delta of a vertex labelled free, S, T (index = label)
_SIGN = np.array([0.0, 1.0, -1.0])
# slack a least-slack edge loses per unit delta, by the label of its target
# vertex: the S source loses delta, an S target another delta, and a T
# target gains delta back
_PULL = np.array([1.0, 2.0, 0.0])
# delta per unit slack of the least-slack edge to a free or an S vertex
# (T vertices are masked out)
_SCALE = np.array([1.0, 0.5, 1.0])


def max_weight_matching(edges, weights) -> set:
    """Maximum-cardinality matching of greatest total weight.

    ``edges`` lists distinct pairs ``(v, w)`` of hashable vertices with
    ``v != w``; ``weights[k]`` is the float weight of ``edges[k]``.
    Returns the matched edges as a set of pairs, each as it appears in
    ``edges``.  For m vertices it takes O(m ** 3) Python steps (array
    work O(m ** 4) at worst) and O(m ** 2) memory.
    """
    edges = list(edges)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(edges),):
        raise ValueError(f"{len(edges)} edges but weights of shape {weights.shape}")
    if not edges:
        return set()
    w2, eid = _arrays(edges, weights)
    m = len(w2)
    if m % 2 == 0:
        found = _Matcher(w2, eid, greedy=True).run()
        if 2 * len(found) == m:
            return {edges[k] for k in found}
    return {edges[k] for k in _Matcher(w2, eid, greedy=False).run()}


def _arrays(edges, weights):
    """``w2`` and ``eid`` of a non-empty edge list and its weight array.

    The vertices are relabelled 0..m-1 in order of first appearance.
    """
    ends = [v for e in edges for v in e]
    index = {v: i for i, v in enumerate(dict.fromkeys(ends))}
    m = len(index)
    a, b = np.fromiter(map(index.__getitem__, ends), int, len(ends)).reshape(-1, 2).T
    w2 = np.full((m, m), -_INF)
    w2[a, b] = w2[b, a] = 2.0 * weights
    eid = np.full((m, m), -1)
    eid[a, b] = eid[b, a] = np.arange(len(edges))
    return w2, eid


class _Matcher:
    """One run of the blossom algorithm on vertices 0..m-1.

    ``w2`` and ``eid`` are read, never written, so runs may share them.
    """

    def __init__(self, w2, eid, greedy):
        m = self.m = len(w2)
        self.w2, self.eid = w2, eid
        self.dual = np.zeros(2 * m)
        self.ids = np.arange(m)
        self.inb = np.arange(m)
        self.lab = np.zeros(2 * m, dtype=np.int8)
        self.best = np.zeros(m, dtype=int)
        self.bslack = np.full(m, _INF)
        self.mate = np.full(m, -1)
        # labeledge[b] = (v, w): top-level blossom b got its label through
        # edge (v, w) with w in b; None for an S-blossom whose base is single
        self.labeledge = [None] * (2 * m)
        self.parent = [-1] * (2 * m)
        self.base = list(range(m)) + [-1] * m
        self.leaves = [[v] for v in range(m)] + [None] * m
        # childs[b] runs round blossom b from its base; edges[b][i]
        # joins childs[b][i] to childs[b][i + 1] (wrapping)
        self.childs = [None] * (2 * m)
        self.edges = [None] * (2 * m)
        self.unused = list(range(2 * m - 1, m - 1, -1))
        self.new_s = []     # vertices labelled S since `best` was updated
        self.merged = []    # vertices whose blossom formed since then
        if greedy:
            self._greedy_start()
        else:
            self.dual[:m] = max(0.0, w2.max() / 2)

    def _greedy_start(self):
        """Greedy duals and matching for the stages to start from.

        Each ``dual[v]`` starts at the vertex's largest incident weight, so
        every slack is >= 0.  In vertex order, each vertex still exposed
        lowers its dual by its least slack and takes a tight edge to another
        exposed vertex if it has one: slacks stay >= 0 and every matched
        edge is tight.
        """
        m, w2, dual, mate = self.m, self.w2, self.dual, self.mate
        dual[:m] = w2.max(axis=1) / 2
        for v in range(m):
            if mate[v] >= 0:
                continue
            slack = dual[v] + dual[:m] - w2[v]
            least = slack.min()
            dual[v] -= least
            slack[mate >= 0] = _INF
            w = int(slack.argmin())
            if slack[w] <= least:
                mate[v], mate[w] = w, v

    def run(self):
        """Augment stage by stage; return the matched edge ids."""
        m = self.m
        while self._stage():
            for b in range(m, 2 * m):
                if (self.childs[b] is not None and self.parent[b] == -1
                        and self.lab[b] == 1 and self.dual[b] == 0):
                    self._expand_at_end(b)
        return [self.eid[v, w] for v, w in enumerate(self.mate.tolist()) if v < w]

    # ------------------------------------------------------------------
    # one stage: grow alternating trees from the single vertices
    # ------------------------------------------------------------------

    def _stage(self):
        """Search for one augmenting path; False once there is none."""
        m, dual, lab, inb = self.m, self.dual, self.lab, self.inb
        lab[:] = 0
        roots = inb[self.mate < 0]
        if not roots.size:
            return False
        lab[roots] = 1
        for b in roots.tolist():
            self.labeledge[b] = None
        self._rescan(self.ids)
        while True:
            vlab = lab[inb]
            key = self.bslack * _SCALE[vlab]
            key[vlab == 2] = _INF
            w = int(key.argmin())
            delta = key[w]
            if delta <= 0:
                tight = np.flatnonzero(key <= 0)
            else:
                t_blossom = -1
                if len(self.unused) < m:
                    zt = np.where(lab[m:] == 2, dual[m:], _INF)
                    b = int(zt.argmin())
                    if zt[b] < delta:
                        delta, t_blossom = zt[b], m + b
                if delta == _INF:
                    return False    # no augmenting path: maximum cardinality
                dual[:m] -= delta * _SIGN[vlab]
                self.bslack -= delta * _PULL[vlab]
                if len(self.unused) < m:
                    dual[m:] += delta * _SIGN[lab[m:]]
                if t_blossom >= 0:
                    self._expand_t(t_blossom)
                    self._update_best()
                    continue
                tight = (w,)
            for w in tight:
                if self._use_edge(int(self.best[w]), int(w)):
                    self.new_s.clear()
                    self.merged.clear()
                    return True
            self._update_best()

    def _use_edge(self, v, w):
        """Take tight edge (v, w) from S-vertex v; True if it augmented."""
        inb = self.inb
        bw = inb[w]
        if inb[v] == bw or self.lab[bw] == 2:
            return False
        if self.lab[bw] == 0:
            self._label_t(w, v)
            return False
        base = self._scan(v, w)
        if base >= 0:
            self._add_blossom(base, v, w)
            return False
        self._augment(v, w)
        return True

    def _same_blossom(self, rows, cols):
        """Mask of (rows, cols) pairs in one blossom, or None if none can be."""
        if len(self.unused) == self.m:
            return None     # no blossoms; the diagonal of w2 is -inf anyway
        return self.inb[rows, None] == self.inb[cols]

    def _rescan(self, d):
        """Set ``best`` of the vertices ``d`` over every S-vertex."""
        s = np.flatnonzero(self.lab[self.inb] == 1)
        w2 = self.w2[d][:, s]
        same = self._same_blossom(d, s)
        if same is not None:
            w2[same] = -_INF
        slack = self.dual[d, None] + self.dual[s] - w2
        k = slack.argmin(axis=1)
        self.best[d] = s[k]
        self.bslack[d] = slack[np.arange(len(d)), k]

    def _update_best(self):
        """Fold the new S-vertices and merged blossoms into ``best``."""
        m, dual = self.m, self.dual
        if self.new_s:
            s = np.array(self.new_s)
            self.new_s.clear()
            w2 = self.w2[s]
            same = self._same_blossom(s, self.ids)
            if same is not None:
                w2[same] = -_INF
            slack = dual[s, None] + dual[:m] - w2
            k = slack.argmin(axis=0)
            slack = slack[k, self.ids]
            better = slack < self.bslack
            self.best = np.where(better, s[k], self.best)
            self.bslack = np.where(better, slack, self.bslack)
        if self.merged:
            # a merged vertex's least-slack edge may now be inside its blossom
            self._rescan(np.array(self.merged))
            self.merged.clear()

    # ------------------------------------------------------------------
    # labels, blossoms and augmentation (Python, on blossom ids)
    # ------------------------------------------------------------------

    def _label_t(self, w, v):
        """Label w's blossom T through (v, w), and the mate of its base S."""
        b = self.inb[w]
        self.lab[b] = 2
        self.labeledge[b] = (v, w)
        base = self.base[b]
        mate = self.mate[base]
        b = self.inb[mate]
        self.lab[b] = 1
        self.labeledge[b] = (base, mate)
        self.new_s.extend(self.leaves[b])

    def _scan(self, v, w):
        """Trace back from S-vertices v and w alternately.

        Returns the base vertex of the blossom closed by edge (v, w), or
        -1 if the two trees end in different single vertices.
        """
        lab, inb, labeledge = self.lab, self.inb, self.labeledge
        path = []
        base = -1
        while v >= 0:
            b = inb[v]
            if lab[b] == 5:
                base = self.base[b]
                break
            path.append(b)
            lab[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[inb[labeledge[b][0]]][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            lab[b] = 1
        return base

    def _add_blossom(self, base, v, w):
        """Make the S-blossom closed by edge (v, w), with the given base."""
        inb, lab, labeledge, parent = self.inb, self.lab, self.labeledge, self.parent
        bb, bv, bw = inb[base], inb[v], inb[w]
        b = self.unused.pop()
        self.base[b] = base
        parent[b] = -1
        parent[bb] = b
        path, edgs = [], [(v, w)]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inb[labeledge[bv][0]]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            v, w = labeledge[bw]
            edgs.append((w, v))
            bw = inb[v]
        self.childs[b], self.edges[b] = path, edgs
        leaves = self.leaves[b] = [x for c in path for x in self.leaves[c]]
        for c in path:
            if lab[c] == 2:
                self.new_s.extend(self.leaves[c])
            lab[c] = 0
        lab[b] = 1
        labeledge[b] = labeledge[bb]
        self.dual[b] = 0.0
        inb[leaves] = b
        self.merged.extend(leaves)

    def _release(self, b):
        self.lab[b] = 0
        self.dual[b] = 0.0
        self.childs[b] = self.edges[b] = self.leaves[b] = None
        self.labeledge[b] = None
        self.unused.append(b)

    def _expand_at_end(self, b):
        """Expand S-blossom b, and every sub-blossom with zero dual."""
        todo = [b]
        while todo:
            b = todo.pop()
            for s in self.childs[b]:
                self.parent[s] = -1
                if s >= self.m and self.dual[s] == 0:
                    todo.append(s)
                else:
                    self.inb[self.leaves[s]] = s
            self._release(b)

    def _expand_t(self, b):
        """Expand T-blossom b mid-stage and relabel its sub-blossoms.

        The sub-blossoms on the even-length path from the one that b was
        entered through to its base become T and S in turn; of the rest,
        each that a tight edge reaches from an S-vertex becomes T.
        """
        inb, lab = self.inb, self.lab
        childs, edges = self.childs[b], self.edges[b]
        for s in childs:
            self.parent[s] = -1
            inb[self.leaves[s]] = s
        v, w = self.labeledge[b]
        entry = inb[w]
        j = childs.index(entry)
        if j & 1:
            j -= len(childs)
            step = 1
        else:
            step = -1
        while j != 0:
            self._label_t(w, v)
            j += step
            v, w = edges[j] if step == 1 else edges[j - 1][::-1]
            j += step
        lab[childs[j]] = 2
        self.labeledge[childs[j]] = (v, w)
        j += step
        while childs[j] != entry:
            if lab[childs[j]] == 0:
                for x in self.leaves[childs[j]]:
                    if self.bslack[x] <= 0:
                        self._label_t(x, int(self.best[x]))
                        break
            j += step
        self._release(b)

    def _augment_blossom(self, b, v):
        """Rematch inside blossom b so that vertex v becomes its base."""
        t = v
        while self.parent[t] != b:
            t = self.parent[t]
        if t >= self.m:
            self._augment_blossom(t, v)
        childs, edges = self.childs[b], self.edges[b]
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            step = 1
        else:
            step = -1
        while j != 0:
            j += step
            w, x = edges[j] if step == 1 else edges[j - 1][::-1]
            if childs[j] >= self.m:
                self._augment_blossom(childs[j], w)
            j += step
            if childs[j] >= self.m:
                self._augment_blossom(childs[j], x)
            self.mate[w] = x
            self.mate[x] = w
        self.childs[b] = childs[i:] + childs[:i]
        self.edges[b] = edges[i:] + edges[:i]
        self.base[b] = self.base[self.childs[b][0]]

    def _augment(self, v, w):
        """Flip the augmenting path through the tight S-S edge (v, w)."""
        inb, labeledge = self.inb, self.labeledge
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inb[s]
                if bs >= self.m:
                    self._augment_blossom(bs, s)
                self.mate[s] = j
                if labeledge[bs] is None:
                    break
                bt = inb[labeledge[bs][0]]
                s, j = labeledge[bt]
                if bt >= self.m:
                    self._augment_blossom(bt, j)
                self.mate[j] = s
