"""Model persistence: state dicts, disk checkpoints, shared memory.

Three layers:

* ``save_weights`` / ``load_weights`` — a module's named parameters as a
  single compressed ``.npz`` (the original minimal API, kept as-is).
* ``save_checkpoint`` / ``load_checkpoint`` — a checkpoint *directory*
  holding ``weights.npz`` (arbitrary named arrays) plus ``config.json``
  (JSON-serialisable metadata), which is what
  ``WellnessClassifier.save``/``load`` round-trips through for both the
  traditional and transformer baselines.
* :class:`SharedCheckpoint` — the same named arrays published once into
  a ``multiprocessing.shared_memory`` segment so worker *processes* can
  attach zero-copy read-only numpy views instead of each loading (and
  decompressing) the ``.npz``.  A ``weights_version`` token lives in the
  segment header; :meth:`SharedCheckpoint.update` overwrites the weight
  bytes in place and bumps it, which is the cross-process cache
  invalidation / hot-reload protocol the multi-process serving layer
  (:mod:`repro.engine.procserver`) builds on.

``collect_array_state`` / ``restore_array_state`` capture the fitted
sklearn-style ``*_`` attributes of the classical ML models so they can
ride in the same checkpoint format as the neural state dicts.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from multiprocessing import shared_memory

    from repro.nn.layers import Module

# ``multiprocessing.shared_memory`` and ``secrets`` are imported where
# ``SharedCheckpoint`` uses them: a checkpoint loaded from disk in one
# process needs neither, nor the autograd layers the type hints name.

__all__ = [
    "SharedArraySpec",
    "SharedCheckpoint",
    "SharedManifest",
    "save_weights",
    "load_weights",
    "save_checkpoint",
    "load_checkpoint",
    "collect_array_state",
    "restore_array_state",
]

CHECKPOINT_FORMAT_VERSION = 1
_WEIGHTS_NAME = "weights.npz"
_CONFIG_NAME = "config.json"


def save_weights(module: Module, path: str | Path) -> None:
    """Write every named parameter to a compressed ``.npz`` archive."""
    state = module.state_dict()
    np.savez_compressed(str(path), **state)


def load_weights(module: Module, path: str | Path) -> None:
    """Load weights written by :func:`save_weights` into ``module``.

    Shapes and names must match exactly.
    """
    with np.load(str(path)) as archive:
        state = {name: archive[name] for name in archive.files}
    module.load_state_dict(state)


# ----------------------------------------------------------------------
# Checkpoint directories: arrays + JSON config
# ----------------------------------------------------------------------
def save_checkpoint(
    path: str | Path,
    *,
    arrays: dict[str, np.ndarray],
    config: dict,
) -> Path:
    """Write a checkpoint directory: ``weights.npz`` + ``config.json``.

    ``path`` is created (parents included) if missing; an existing
    checkpoint at the same path is overwritten.
    """
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(str(target / _WEIGHTS_NAME), **arrays)
    payload = {"format_version": CHECKPOINT_FORMAT_VERSION, **config}
    (target / _CONFIG_NAME).write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    return target


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint directory back as ``(arrays, config)``."""
    target = Path(path)
    weights_path = target / _WEIGHTS_NAME
    config_path = target / _CONFIG_NAME
    if not weights_path.is_file() or not config_path.is_file():
        raise FileNotFoundError(
            f"{target} is not a checkpoint directory "
            f"(expected {_WEIGHTS_NAME} and {_CONFIG_NAME})"
        )
    with np.load(str(weights_path)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    config = json.loads(config_path.read_text(encoding="utf-8"))
    version = config.pop("format_version", None)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format_version {version!r} "
            f"(this build reads {CHECKPOINT_FORMAT_VERSION})"
        )
    return arrays, config


# ----------------------------------------------------------------------
# Shared-memory checkpoints: zero-copy weights across processes
# ----------------------------------------------------------------------
# Layout of a published segment:
#   [0, 8)              weights_version (little-endian uint64)
#   [64, ...)           the arrays, each aligned to _ALIGN bytes
# The 64-byte header leaves room for future fields without moving the
# payload off cache-line alignment.
_HEADER_BYTES = 64
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedArraySpec:
    """Where one named array lives inside a shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class SharedManifest:
    """Everything a worker process needs to attach a published segment.

    Plain picklable data — it travels to worker processes over the
    spawn/fork argument channel (or any pipe), never through the
    filesystem.
    """

    shm_name: str
    total_bytes: int
    specs: tuple[SharedArraySpec, ...]


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    On Python < 3.13, attaching to an existing segment registers it with
    the resource tracker exactly like creating one does; when the
    attaching process exits, the tracker believes the segment leaked and
    unlinks it out from under the owner (cpython#82300).  Worse, forked
    attachers share the parent's tracker, whose cache is a set — two
    attachers registering and unregistering the same name race into a
    tracker-side KeyError.  Only the publishing process owns cleanup, so
    attachers suppress registration entirely: 3.13+ has ``track=False``
    for this; older interpreters get a momentary no-op ``register``
    swap around the ``SharedMemory`` constructor.
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):  # pragma: no cover - newer interpreters
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


class SharedCheckpoint:
    """Named numpy arrays in one shared-memory segment.

    The *publisher* (`publish`) creates the segment, copies the arrays
    in once, and is responsible for :meth:`unlink`.  Any number of
    *attachers* (`attach`, typically worker processes) map the same
    physical pages and read the arrays through zero-copy read-only
    views — no per-worker deserialisation, no per-worker copy of the
    weights (transformer workers copy once into their parameters via
    ``load_state_dict``; traditional models serve straight off the
    views).

    ``weights_version`` is a monotonically increasing token stored in
    the segment header.  :meth:`update` overwrites the weight bytes in
    place (shapes and dtypes must match) and bumps the token; attached
    processes poll :attr:`weights_version` cheaply (one uint64 read)
    and invalidate their prediction caches when it moves — the
    cross-process analogue of :func:`repro.engine.engine.
    bump_weights_version`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: SharedManifest,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._manifest = manifest
        self._owner = owner
        self._closed = False
        self._header = np.frombuffer(shm.buf, dtype=np.uint64, count=1)
        views: dict[str, np.ndarray] = {}
        for spec in manifest.specs:
            view = np.frombuffer(
                shm.buf,
                dtype=np.dtype(spec.dtype),
                count=int(np.prod(spec.shape, dtype=np.int64)),
                offset=spec.offset,
            ).reshape(spec.shape)
            if not owner:
                view.flags.writeable = False
            views[spec.name] = view
        self._views = views

    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        name: str | None = None,
        weights_version: int = 1,
    ) -> "SharedCheckpoint":
        """Create a segment holding ``arrays`` and return the owner handle."""
        import secrets
        from multiprocessing import shared_memory

        if not arrays:
            raise ValueError("cannot publish an empty checkpoint")
        specs: list[SharedArraySpec] = []
        offset = _HEADER_BYTES
        prepared: dict[str, np.ndarray] = {}
        for array_name, value in arrays.items():
            value = np.asarray(value)
            # Record the shape first: ascontiguousarray promotes 0-d
            # arrays to (1,), and a scalar that round-trips as a vector
            # breaks restore_array_state's 0-d → Python-scalar unwrap.
            shape = tuple(value.shape)
            value = np.ascontiguousarray(value)
            prepared[array_name] = value
            specs.append(
                SharedArraySpec(
                    name=array_name,
                    dtype=value.dtype.str,
                    shape=shape,
                    offset=offset,
                )
            )
            offset = _align(offset + value.nbytes)
        shm_name = name or f"hx_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            name=shm_name, create=True, size=max(offset, _HEADER_BYTES + 1)
        )
        manifest = SharedManifest(
            shm_name=shm.name, total_bytes=shm.size, specs=tuple(specs)
        )
        checkpoint = cls(shm, manifest, owner=True)
        for spec in specs:
            checkpoint._views[spec.name][...] = prepared[spec.name]
        checkpoint._header[0] = weights_version
        return checkpoint

    @classmethod
    def attach(cls, manifest: SharedManifest) -> "SharedCheckpoint":
        """Attach read-only views over a segment published elsewhere."""
        # The owner unlinks; an attacher registering with the resource
        # tracker would let the tracker unlink a live segment at exit.
        shm = _attach_untracked(manifest.shm_name)
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    @property
    def manifest(self) -> SharedManifest:
        return self._manifest

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def name(self) -> str:
        return self._manifest.shm_name

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Name -> view.  Views are read-only for attachers."""
        return dict(self._views)

    @property
    def weights_version(self) -> int:
        """The header token; one uint64 read, safe to poll per batch."""
        return int(self._header[0])

    def update(self, arrays: dict[str, np.ndarray]) -> int:
        """Overwrite the weight bytes in place and bump the version.

        The hot-reload path: shapes and dtypes must match the published
        layout exactly (a retrained model with the same architecture).
        Returns the new ``weights_version`` attached processes will see.
        """
        if not self._owner:
            raise PermissionError("only the publishing process may update")
        missing = set(self._views) - set(arrays)
        unexpected = set(arrays) - set(self._views)
        if missing or unexpected:
            raise ValueError(
                f"array-name mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for array_name, view in self._views.items():
            value = np.asarray(arrays[array_name])
            if value.shape != view.shape or np.dtype(value.dtype) != view.dtype:
                raise ValueError(
                    f"layout mismatch for {array_name!r}: segment holds "
                    f"{view.dtype}{view.shape}, got {value.dtype}{value.shape}"
                )
            view[...] = value
        self._header[0] += 1
        return int(self._header[0])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        if self._closed:
            return
        self._closed = True
        # The numpy views pin the exported buffer; release them before
        # closing or SharedMemory.close() raises BufferError.
        self._views = {}
        self._header = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass

    def unlink(self) -> None:
        """Destroy the segment (publisher only; idempotent)."""
        if not self._owner:
            raise PermissionError("only the publishing process may unlink")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


# ----------------------------------------------------------------------
# sklearn-style estimator state
# ----------------------------------------------------------------------
def collect_array_state(estimator: object) -> dict[str, np.ndarray]:
    """Fitted ``*_`` attributes of a classical model, as named arrays.

    Scalars (``n_classes_``, ``n_iter_``) are stored as 0-d arrays so
    everything fits one ``.npz``; private and unfitted (``None``)
    attributes are skipped.
    """
    state: dict[str, np.ndarray] = {}
    for name, value in vars(estimator).items():
        if not name.endswith("_") or name.startswith("_") or value is None:
            continue
        state[name] = np.asarray(value)
    return state


def restore_array_state(estimator: object, state: dict[str, np.ndarray]) -> None:
    """Set fitted attributes captured by :func:`collect_array_state`.

    0-d integer/float arrays are unwrapped back to Python scalars so the
    estimator sees the same types it produced during ``fit``.
    """
    for name, value in state.items():
        if value.ndim == 0:
            setattr(estimator, name, value.item())
        else:
            setattr(estimator, name, value)
    # In-place fitted-state mutation: bump the weights version so
    # prediction caches keyed on it miss instead of serving rows
    # computed with the previous weights (see repro.engine.engine).
    estimator._weights_version = getattr(estimator, "_weights_version", 0) + 1
