"""Reverse-mode differentiation over a fixed op set, plus Adam and helpers.

A Tape records a forward pass in topological order; backward walks the
record once and deposits gradients into a ParamStore. Each op returns a Var
that holds its value; the tape keeps only what the backward pass reads. The
op set is exactly what the three task heads need; there is no general graph
optimizer.

64-bit floats throughout: finite-difference verification is part of the
contract and float32 would not survive it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import SparseMatrix, spmm


class TapeReuseError(RuntimeError):
    """A tape was asked to run backward twice without a fresh forward pass."""


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contained NaN/Inf; the optimizer step aborted."""


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ParamEntry:
    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    bounds: tuple[float, float] | None = None  # clipped after each step
    decay: bool = True  # subject to the optimizer's weight decay


class ParamStore:
    """Named trainable parameters with their gradients and Adam state."""

    def __init__(self):
        self.entries: dict[str, ParamEntry] = {}
        self.step_count = 0

    def register(self, name: str, value, bounds=None,
                 decay: bool = True) -> np.ndarray:
        """Add a parameter; bounds=(low, high) keeps every optimizer step
        inside that interval (projected update), decay=False exempts it
        from weight decay."""
        if name in self.entries:
            raise ValueError(f"parameter {name!r} already registered")
        v = np.array(value, dtype=np.float64)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        self.entries[name] = ParamEntry(
            v, np.zeros_like(v), np.zeros_like(v), np.zeros_like(v), bounds,
            decay,
        )
        return self.entries[name].value

    def __contains__(self, name):
        return name in self.entries

    def names(self) -> list[str]:
        return list(self.entries)

    def value(self, name) -> np.ndarray:
        return self.entries[name].value

    def grad(self, name) -> np.ndarray:
        return self.entries[name].grad

    def zero_grads(self):
        for e in self.entries.values():
            e.grad[:] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the current values (for best-epoch restore)."""
        return {k: e.value.copy() for k, e in self.entries.items()}

    def restore(self, snap: dict[str, np.ndarray]):
        for k, v in snap.items():
            self.entries[k].value[:] = v


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# tape

GROUP_NORM_EPS = 1e-5  # added to each group's variance


class Var:
    """The handle an op returns: its node's index on the tape (so that
    `tape.nodes[h]` is its node) and its value.

    The value lives here, not on the tape, so it is freed once the caller
    drops the handle, unless a backward closure keeps it."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: np.ndarray):
        self.index = index
        self.value = value

    def __index__(self) -> int:
        return self.index


@dataclass
class Node:
    """One recorded op: parent indices and the backward closure, which
    holds only the arrays it reads. The op's value is in its Var."""

    parents: tuple[int, ...] = ()
    vjp: object = None  # callable(grad) -> tuple of parent grads
    param_name: str | None = None
    needs_grad: bool = False


def _shape_error(kind, *shapes):
    return ValueError(f"{kind}: incompatible shapes {' vs '.join(map(str, shapes))}")


class Tape:
    """Append-only record of one forward pass.

    Confined to a single thread. `train` gates dropout and `rng` feeds it.
    A training tape runs one backward(); an eval tape (train=False) records
    values only: its parameter leaves need no gradient, so no node keeps a
    backward closure. Values live in the Vars the ops return; `nodes` holds
    the graph and what each backward reads.
    """

    def __init__(self, store: ParamStore | None = None, train: bool = True,
                 rng: np.random.Generator | None = None):
        self.store = store
        self.train = train
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nodes: list[Node] = []
        self._spent = False

    # -- leaves ------------------------------------------------------------

    def constant(self, value) -> Var:
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 1:
            v = v.reshape(1, -1)
        return self._append(Node(), v)

    def param(self, name: str) -> Var:
        if self.store is None or name not in self.store:
            raise KeyError(f"parameter {name!r} not registered")
        return self._append(Node(param_name=name, needs_grad=self.train),
                            self.store.value(name))

    def _append(self, node: Node, value) -> Var:
        self.nodes.append(node)
        return Var(len(self.nodes) - 1, value)

    def value(self, handle: Var) -> np.ndarray:
        return handle.value

    def _derived(self, value, parents, vjp) -> Var:
        needs = any(self.nodes[p.index].needs_grad for p in parents)
        return self._append(
            Node(tuple(p.index for p in parents), vjp if needs else None,
                 needs_grad=needs),
            np.asarray(value))

    # -- ops -----------------------------------------------------------------

    def matmul(self, a: Var, b: Var, transpose_b: bool = False) -> Var:
        av, bv = self.value(a), self.value(b)
        bT = bv.T if transpose_b else bv
        if av.shape[1] != bT.shape[0]:
            raise _shape_error("matmul", av.shape, bv.shape)
        out = av @ bT

        def vjp(g):
            if transpose_b:
                return g @ bv, g.T @ av
            return g @ bv.T, av.T @ g

        return self._derived(out, (a, b), vjp)

    def affine(self, x: Var, w: Var, b: Var, relu: bool = False) -> Var:
        """x @ w + b for a (1, d) bias b, zeroed where not > 0 if relu: the
        matmul -> add (-> relu) chain as one node."""
        xv, wv, bv = self.value(x), self.value(w), self.value(b)
        if xv.shape[1] != wv.shape[0] or bv.shape != (1, wv.shape[1]):
            raise _shape_error("affine", xv.shape, wv.shape, bv.shape)
        out = xv @ wv
        out += bv
        # the backward reads this mask, not the float output; the zeroing
        # leaves every entry of out > 0 as it was
        mask = None
        if relu:
            mask = out > 0
            out[~mask] = 0.0
        x_grad = self.nodes[x.index].needs_grad

        def vjp(g):
            g = g * mask if relu else g
            return (g @ wv.T if x_grad else None, xv.T @ g,
                    g.sum(axis=0, keepdims=True))

        return self._derived(out, (x, w, b), vjp)

    def spmm_const(self, s: SparseMatrix, x: Var, st: SparseMatrix) -> Var:
        """s @ x for a constant operator s; st is its transpose, which the
        backward pass multiplies by."""
        out = spmm(s, self.value(x))  # raises on shape mismatch

        def vjp(g):
            return (spmm(st, g),)

        return self._derived(out, (x,), vjp)

    def add(self, a: Var, b: Var) -> Var:
        av, bv = self.value(a), self.value(b)
        if av.shape != bv.shape:
            # only row-vector bias broadcast is supported
            if not (bv.shape == (1, av.shape[1]) or av.shape == (1, bv.shape[1])):
                raise _shape_error("add", av.shape, bv.shape)
        out = av + bv
        a_full, b_full = av.shape == out.shape, bv.shape == out.shape

        def vjp(g):
            ga = g if a_full else g.sum(axis=0, keepdims=True)
            gb = g if b_full else g.sum(axis=0, keepdims=True)
            return ga, gb

        return self._derived(out, (a, b), vjp)

    def relu(self, x: Var) -> Var:
        xv = self.value(x)
        mask = xv > 0

        def vjp(g):
            return (g * mask,)

        return self._derived(np.where(mask, xv, 0.0), (x,), vjp)

    def group_norm(self, x: Var, gamma: Var, beta: Var,
                   n_groups: int = 1) -> Var:
        xv = self.value(x)
        gv, bv = self.value(gamma), self.value(beta)
        n, d = xv.shape
        if d % n_groups:
            raise ValueError(f"group_norm: {n_groups} groups do not divide dim {d}")
        if gv.shape != (1, d) or bv.shape != (1, d):
            raise _shape_error("group_norm affine", gv.shape, bv.shape, (1, d))
        grp = xv.reshape(n, n_groups, d // n_groups)
        mu = grp.mean(axis=2, keepdims=True)
        var = grp.var(axis=2, keepdims=True)
        inv = 1.0 / np.sqrt(var + GROUP_NORM_EPS)
        xhat = ((grp - mu) * inv).reshape(n, d)
        out = xhat * gv + bv

        def vjp(g):
            dgamma = (g * xhat).sum(axis=0, keepdims=True)
            dbeta = g.sum(axis=0, keepdims=True)
            gh = (g * gv).reshape(n, n_groups, d // n_groups)
            xh = xhat.reshape(n, n_groups, d // n_groups)
            m1 = gh.mean(axis=2, keepdims=True)
            m2 = (gh * xh).mean(axis=2, keepdims=True)
            dx = ((gh - m1 - xh * m2) * inv).reshape(n, d)
            return dx, dgamma, dbeta

        return self._derived(out, (x, gamma, beta), vjp)

    def l2_normalize_rows(self, x: Var) -> Var:
        xv = self.value(x)
        norms = np.linalg.norm(xv, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        y = np.where(norms > 0, xv / safe, 0.0)

        def vjp(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            dx = np.where(norms > 0, (g - y * dot) / safe, 0.0)
            return (dx,)

        return self._derived(y, (x,), vjp)

    def dropout(self, x: Var, rate: float) -> Var:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if rate == 0.0 or not self.train:
            return x
        xv = self.value(x)
        keep = self.rng.random(xv.shape) >= rate
        scale = 1.0 / (1.0 - rate)

        def vjp(g):
            return (g * keep * scale,)

        return self._derived(xv * keep * scale, (x,), vjp)

    def scalar_mix(self, tensors: list[Var], weights, tied: bool = False) -> Var:
        """Weighted sum of same-shape matrices.

        weights: a Var (trainable) or a plain array (fixed). tied mixes
        exactly two tensors as w*A + (1-w)*B from a single scalar.
        """
        vals = [self.value(t) for t in tensors]
        for v in vals[1:]:
            if v.shape != vals[0].shape:
                raise _shape_error("scalar_mix", vals[0].shape, v.shape)
        trainable = isinstance(weights, Var)
        wv = weights.value if trainable else np.asarray(weights,
                                                        dtype=np.float64)
        # the closure keeps the weight's shape, not the tape: a closure that
        # read the tape would hold every spent tape in a reference cycle
        w_shape = wv.shape
        wv = wv.reshape(-1)
        if tied:
            if len(tensors) != 2 or wv.size != 1:
                raise ValueError("tied scalar_mix needs 2 tensors and 1 weight")
            coef = np.array([wv[0], 1.0 - wv[0]])
        else:
            if wv.size != len(tensors):
                raise _shape_error("scalar_mix weights", (wv.size,), (len(tensors),))
            coef = wv
        out = sum(c * v for c, v in zip(coef, vals))
        parents = tuple(tensors) + ((weights,) if trainable else ())
        # only a trainable weight's gradient reads the inputs
        kept = vals if trainable else None

        def vjp(g):
            grads = [c * g for c in coef]
            if trainable:
                if tied:
                    gw = np.array([[np.sum(g * (kept[0] - kept[1]))]])
                else:
                    gw = np.array([[np.sum(g * v) for v in kept]])
                grads.append(gw.reshape(w_shape))
            return tuple(grads)

        return self._derived(out, parents, vjp)

    def exp_scale(self, x: Var, log_scale: Var) -> Var:
        """exp(s) * x for a 1 x 1 log-scale node s (a learned temperature)."""
        xv, sv = self.value(x), self.value(log_scale)
        if sv.size != 1:
            raise _shape_error("exp_scale log scale", sv.shape, (1, 1))
        scale = float(np.exp(sv.reshape(-1)[0]))
        out = scale * xv

        def vjp(g):
            return scale * g, np.sum(g * out).reshape(sv.shape)

        return self._derived(out, (x, log_scale), vjp)

    def take(self, x: Var, indices, axis: int = 0) -> Var:
        """Rows (axis=0) or columns (axis=1) of x in the order of indices;
        a repeated index gathers its slice again and sums its gradients."""
        xv = self.value(x)
        idx = np.asarray(indices, dtype=np.int64)
        out = np.take(xv, idx, axis=axis)
        shape = xv.shape
        where = (slice(None),) * axis + (idx,)

        def vjp(g):
            dx = np.zeros(shape)
            np.add.at(dx, where, g)
            return (dx,)

        return self._derived(out, (x,), vjp)

    def mse(self, pred: Var, target) -> Var:
        pv = self.value(pred)
        tv = np.asarray(target, dtype=np.float64)
        if pv.shape != tv.shape:
            raise _shape_error("mse", pv.shape, tv.shape)
        diff = pv - tv
        out = np.asarray((diff * diff).mean())

        def vjp(g):
            return (g * 2.0 * diff / diff.size,)

        return self._derived(out, (pred,), vjp)

    def rmse(self, pred: Var, target) -> Var:
        pv = self.value(pred)
        tv = np.asarray(target, dtype=np.float64)
        if pv.shape != tv.shape:
            raise _shape_error("rmse", pv.shape, tv.shape)
        diff = pv - tv
        val = float(np.sqrt((diff * diff).mean()))

        def vjp(g):
            if val == 0.0:
                return (np.zeros_like(diff),)
            return (g * diff / (diff.size * val),)

        return self._derived(np.asarray(val), (pred,), vjp)

    def cross_entropy_rows(self, logits: Var, labels, mask=None) -> Var:
        """-log softmax(logits)[r, labels[r]], averaged over selected rows.

        mask selects the rows that carry supervision. With an empty
        selection the loss is 0.
        """
        lv = self.value(logits)
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (lv.shape[0],):
            raise _shape_error("cross_entropy_rows labels", lab.shape, lv.shape)
        sel = np.ones(lv.shape[0], dtype=bool) if mask is None else np.asarray(
            mask, dtype=bool
        )
        if np.any((lab[sel] < 0) | (lab[sel] >= lv.shape[1])):
            raise ValueError("label index out of range")
        n_sel = int(sel.sum())
        shifted = lv - lv.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        logp = shifted - logz
        shape = lv.shape
        if n_sel == 0:
            return self._derived(np.asarray(0.0), (logits,),
                                 lambda g: (np.zeros(shape),))
        picked = logp[sel, lab[sel]]
        total = -picked.sum()
        scale = 1.0 / n_sel
        p = np.exp(logp)

        def vjp(g):
            dx = np.zeros(shape)
            dx[sel] = p[sel]
            dx[sel, lab[sel]] -= 1.0
            return (dx * (g * scale),)

        return self._derived(np.asarray(total * scale), (logits,), vjp)

    def l2_penalty(self, x: Var) -> Var:
        """Mean Euclidean norm of the rows."""
        xv = self.value(x)
        norms = np.linalg.norm(xv, axis=1, keepdims=True)
        out = np.asarray(norms.mean())
        safe = np.where(norms > 0, norms, 1.0)

        def vjp(g):
            return (g * np.where(norms > 0, xv / safe, 0.0) / xv.shape[0],)

        return self._derived(out, (x,), vjp)

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: Var):
        """Accumulate d(loss)/d(param) into the store for every param leaf."""
        if not self.train:
            raise RuntimeError("an eval tape records no backward pass")
        if self._spent:
            raise TapeReuseError("tape already ran backward; record a new pass")
        self._spent = True
        loss_val = np.asarray(loss.value)
        if loss_val.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss_val.shape}")
        grads: dict[int, np.ndarray] = {loss.index: np.ones_like(loss_val)}
        for idx in range(loss.index, -1, -1):
            node = self.nodes[idx]
            g = grads.pop(idx, None)
            if g is None or not node.needs_grad and node.param_name is None:
                continue
            if node.param_name is not None:
                self.store.entries[node.param_name].grad += g.reshape(
                    self.store.value(node.param_name).shape
                )
                continue
            if node.vjp is None:
                continue
            parent_grads = node.vjp(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not self.nodes[p].needs_grad:
                    continue
                if p in grads:
                    grads[p] = grads[p] + pg
                else:
                    grads[p] = pg


# ---------------------------------------------------------------------------
# optimizer

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: ParamStore, lr: float, weight_decay: float = 0.0):
    """One Adam update with bias correction and decoupled weight decay.

    Parameters registered with decay=False skip the weight decay, and those
    registered with bounds are clipped back into them after the update.
    Aborts (no parameter touched) if any gradient is non-finite.
    Gradients are zeroed after a successful step.
    """
    for name, e in params.entries.items():
        if not np.all(np.isfinite(e.grad)):
            raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
    t = params.step_count + 1
    for e in params.entries.values():
        e.adam_m[:] = ADAM_BETA1 * e.adam_m + (1 - ADAM_BETA1) * e.grad
        e.adam_v[:] = (ADAM_BETA2 * e.adam_v
                       + (1 - ADAM_BETA2) * e.grad * e.grad)
        m_hat = e.adam_m / (1 - ADAM_BETA1 ** t)
        v_hat = e.adam_v / (1 - ADAM_BETA2 ** t)
        decay = weight_decay * e.value if e.decay else 0.0
        e.value -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + decay)
        if e.bounds is not None:
            np.clip(e.value, *e.bounds, out=e.value)
    params.step_count = t
    params.zero_grads()


def lr_decay(initial_lr: float, step: int, decay_rate: float,
             decay_every: int) -> float:
    if decay_every < 1:
        raise ValueError("decay_every must be >= 1")
    return initial_lr * decay_rate ** (step // decay_every)


# ---------------------------------------------------------------------------
# finite-difference verification

FD_STEP = 1e-5  # central-difference step


def finite_difference_check(build_loss, store: ParamStore) -> float:
    """Max relative error between backward() and central differences.

    build_loss(tape) must record one forward pass and return the loss
    handle; it is re-invoked for every probe, so it has to be deterministic.
    Every probe's tape draws its dropout masks from a generator seeded
    with 0, so each probe sees the same masks.
    """
    tape = Tape(store, train=True, rng=np.random.default_rng(0))
    loss = build_loss(tape)
    store.zero_grads()
    tape.backward(loss)
    analytic = {k: store.grad(k).copy() for k in store.names()}

    def eval_loss() -> float:
        t = Tape(store, train=True, rng=np.random.default_rng(0))
        return float(np.asarray(t.value(build_loss(t))))

    worst = 0.0
    for name in store.names():
        value = store.value(name)
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = eval_loss()
            flat[i] = orig - FD_STEP
            down = eval_loss()
            flat[i] = orig
            numeric = (up - down) / (2 * FD_STEP)
            a = analytic[name].reshape(-1)[i]
            # the floor keeps central-difference roundoff on (near-)zero
            # gradient components from registering as large relative error
            err = abs(a - numeric) / max(1e-4, abs(a), abs(numeric))
            worst = max(worst, err)
    store.zero_grads()
    return worst


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"CGCK"
_CKPT_VERSION = 1


def save_checkpoint(store: ParamStore, path):
    """Versioned binary record of values, Adam state and step counter.
    Nothing in the package reads it back."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<IQ I", _CKPT_VERSION, store.step_count,
                             len(store.entries)))
        for name in sorted(store.entries):
            e = store.entries[name]
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", *e.value.shape))
            for arr in (e.value, e.adam_m, e.adam_v):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

