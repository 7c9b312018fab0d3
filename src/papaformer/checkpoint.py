"""Bit-exact checkpoint serialization.

Layout: magic "PPCK", u32 version, u64 manifest byte length, UTF-8 JSON
manifest, then the payload of raw little-endian float32 tensors in manifest
order. The manifest carries per-tensor (name, shape, offset, provenance),
the model config, the optional training config, the rng stream state, and
free-form extras (an epoch checkpoint's ``global_step``). save -> load -> save
reproduces identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from papaformer.data import read_header, read_into, replacing
from papaformer.model import ModelConfig, PaPaformerModel, build
from papaformer.tensor import RngState

CHECKPOINT_MAGIC = b"PPCK"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")


class CheckpointError(ValueError):
    """Checkpoint file or contents are malformed."""


@dataclass
class Checkpoint:
    """In-memory view of a checkpoint file."""

    model: PaPaformerModel
    provenance: dict  # tensor name -> reused/concatenated/fresh/trained
    train_config: dict | None = None
    rng: RngState | None = None
    opt_tensors: dict = field(default_factory=dict)  # name -> np.ndarray; read only by load_checkpoint(moments=True)
    extra: dict = field(default_factory=dict)


def save_checkpoint(
    path: str,
    model: PaPaformerModel,
    provenance: dict | None = None,
    train_config: dict | None = None,
    rng: RngState | None = None,
    opt_tensors: dict | None = None,
    extra: dict | None = None,
) -> None:
    provenance = provenance or {}
    tensors = [(name, t.data, provenance.get(name, "fresh")) for name, t in model.named_params().items()]
    tensors += [(f"opt.{name}", arr, "optimizer") for name, arr in (opt_tensors or {}).items()]
    entries = []
    arrays = []
    offset = 0
    for name, data, prov in tensors:
        arr = np.ascontiguousarray(data, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "f4", "offset": offset, "provenance": prov})
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": model.config.to_dict(),
        "train_config": train_config,
        "rng": None if rng is None else {"seed": rng.seed, "position": rng.position},
        "extra": extra or {},
        "tensors": entries,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with replacing(path) as f:
        f.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(blob)))
        f.write(blob)
        for arr in arrays:
            f.write(arr)  # from the array's own buffer; tobytes() would copy it


def _read_manifest(f, path: str) -> dict:
    """The JSON manifest after the header at ``f``'s position, once the rest of the file is the payload it lists.

    One walk checks every key and type a reader indexes and that the payload
    the entries list fills the file; a fault raises CheckpointError naming the
    file. The model config's values are ``ModelConfig``'s to check.
    """
    (_, _, mlen), left = read_header(f, path, _HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    # a length past the end of the file reads only what the file holds, so it cannot ask for terabytes
    manifest = json.loads(f.read(min(mlen, left)).decode("utf-8"))
    begun = end = 0  # entries the walk has begun, and the payload bytes they list
    try:
        rng = manifest.get("rng") or {"seed": 0, "position": 0}
        top = manifest["format_version"], rng["seed"], rng["position"], manifest["model_config"]
        if [type(v) for v in top] != [int, int, int, dict] or type(manifest.get("extra", {})) is not dict:
            raise TypeError("expected integer format_version, rng seed and position, and mappings")
        if type(manifest["tensors"]) is not list:
            raise TypeError("expected a list of tensor entries")
        for begun, e in enumerate(manifest["tensors"], start=1):
            name, shape, offset, _ = e["name"], e["shape"], e["offset"], e["provenance"]
            if offset != end:
                raise CheckpointError(f"{path}: tensor {name!r} at payload offset {offset}, expected {end}")
            n = math.prod(shape)
            if type(n) is not int or type(name) is not str or type(shape) is not list or shape and min(shape) < 0:
                raise TypeError(f"name {name!r} or shape {shape!r}: expected a string and a list of sizes")
            end += 4 * n
            if mlen + end > left:
                raise CheckpointError(f"{path}: payload ends inside tensor {name!r} ({left - mlen} < {end} bytes)")
    except (AttributeError, KeyError, TypeError) as err:  # a JSON value of the wrong kind
        where = f"tensor entry {begun - 1}" if begun else "manifest"
        raise CheckpointError(f"{path}: malformed {where} ({type(err).__name__}: {err})") from None
    if mlen + end != left:
        raise CheckpointError(f"{path}: the file runs {left - mlen - end} bytes past the {end}-byte payload")
    return manifest


def read_manifest(path: str) -> dict:
    with open(path, "rb") as f:
        return _read_manifest(f, path)


def load_checkpoint(path: str, moments: bool = False) -> Checkpoint:
    """Read each tensor straight into its own array, in manifest order: every payload byte is copied once.

    The optimizer moments, the ``opt.`` tensors that ``save_checkpoint`` writes
    last, are read only with ``moments`` (a resume needs them); without it the
    read stops where they begin and ``opt_tensors`` is empty. The manifest's
    size checks still cover the whole file.
    """
    # unbuffered, so each tensor's bytes go from the file into its array with no reader buffer between
    with open(path, "rb", buffering=0) as f:
        manifest = _read_manifest(f, path)
        model = build(ModelConfig.from_dict(manifest["model_config"]), None)
        params = model.named_params()
        provenance = {}
        opt_tensors = {}
        for e in manifest["tensors"]:
            name, shape = e["name"], tuple(e["shape"])
            is_opt = name.startswith("opt.")
            if is_opt and not moments:
                break
            if not is_opt:
                if name not in params:
                    raise CheckpointError(f"{path}: tensor {name!r} not present in model built from config")
                if shape != params[name].shape:
                    raise CheckpointError(
                        f"{path}: tensor {name!r} shape {e['shape']} != model shape {params[name].shape}"
                    )
            arr = np.empty(shape, "<f4")
            read_into(f, arr, path, f"tensor {name!r}", CheckpointError)
            if is_opt:
                opt_tensors[name[4:]] = arr
            else:
                params[name].data = arr.astype(params[name].data.dtype, copy=False)
                provenance[name] = e["provenance"]
    missing = set(params) - set(provenance)
    if missing:
        raise CheckpointError(f"{path}: missing tensors {sorted(missing)[:5]}")
    rng = None
    if manifest.get("rng"):
        rng = RngState(manifest["rng"]["seed"], manifest["rng"]["position"])
    return Checkpoint(
        model=model,
        provenance=provenance,
        train_config=manifest.get("train_config"),
        rng=rng,
        opt_tensors=opt_tensors,
        extra=manifest.get("extra", {}),
    )
