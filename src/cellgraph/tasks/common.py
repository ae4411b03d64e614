"""Shared training protocol: splits, the early-stopping loop, run logs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import ParamStore, Tape, adam_step, lr_decay


@dataclass
class TrainProtocol:
    """Split/stopping/optimizer schedule shared by all three task heads.

    lr of None picks the task default (1e-3 for the coupled prediction
    network, 1e-2 for the decoupled heads).
    """

    split_fraction: float = 0.85
    patience_epochs: int = 300
    max_epochs: int = 2000
    seed: int = 0
    lr: float | None = None
    weight_decay: float = 0.0
    lr_decay_rate: float = 1.0
    lr_decay_every: int = 100

    def validate(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if self.patience_epochs < 1:
            raise ValueError("patience_epochs must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.lr is not None and not self.lr >= 0:
            raise ValueError("lr must be >= 0")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not self.lr_decay_rate > 0:
            raise ValueError("lr_decay_rate must be > 0")


def split_cells(n: int, fraction: float, seed: int):
    """Shuffled (train, validation) index split; both are non-empty."""
    if n < 2:
        raise ValueError(f"a split needs at least 2 cells, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(n - 1, max(1, int(round(n * fraction))))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    lr: float

    def format(self) -> str:
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"val={self.val_metric:.6f} lr={self.lr:.6f}")


def write_run_log(history: list[EpochRecord], path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(rec.format() + "\n")


def run_training(store: ParamStore, train_epoch, validate,
                 protocol: TrainProtocol, task_default_lr: float):
    """Full-batch loop with early stopping on the validation metric.

    train_epoch(tape) records one forward pass and returns the loss handle;
    validate() returns the (lower-is-better) validation metric. Training
    stops once the metric has failed to improve for patience epochs, and the
    best-epoch parameters are restored before returning.

    Returns (best_val, best_epoch, history).
    """
    protocol.validate()
    base_lr = task_default_lr if protocol.lr is None else protocol.lr
    best_val = np.inf
    best_epoch = -1
    best_snap = store.snapshot()
    history: list[EpochRecord] = []
    tape = None
    for epoch in range(protocol.max_epochs):
        lr = lr_decay(base_lr, epoch, protocol.lr_decay_rate,
                      protocol.lr_decay_every)
        spent, tape = tape, Tape(
            store, train=True,
            rng=np.random.default_rng([protocol.seed, epoch]))
        loss = train_epoch(tape)
        # the spent tape, which holds what its backward closures read, is
        # freed only now, under this pass's arrays, so the allocator reuses
        # its memory for the next pass instead of handing it back to the
        # system and faulting it in again
        del spent
        loss_val = float(np.asarray(tape.value(loss)))
        if not np.isfinite(loss_val):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        tape.backward(loss)
        adam_step(store, lr=lr, weight_decay=protocol.weight_decay)
        val = float(validate())
        history.append(EpochRecord(epoch, loss_val, val, lr))
        if val < best_val - 1e-12:
            best_val = val
            best_epoch = epoch
            # into the arrays taken before the loop: fresh copies would land
            # among the spent tapes' freed memory and, kept, pin it in the heap
            for name, saved in best_snap.items():
                saved[:] = store.value(name)
        elif epoch - best_epoch >= protocol.patience_epochs:
            break
    store.restore(best_snap)
    return best_val, best_epoch, history
