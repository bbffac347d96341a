"""Synthetic instance generation and binary PGM/PPM image I/O.

Randomness is split into named streams (factor entries, noise, mask indices,
frequency subsets) derived from one seed, so each component of an experiment
is independently reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .operators import OPERATORS, LinearMap

__all__ = ["SyntheticSpec", "stream_rng", "random_operator", "synth_lowrank", "load_image",
           "save_image"]

_STREAMS = {"factors": 0, "noise": 1, "mask": 2, "freqs": 3}


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named component of an experiment."""
    if stream not in _STREAMS:
        raise ValueError(f"unknown stream {stream!r}, expected one of {sorted(_STREAMS)}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[stream])))


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth description: an m x n rank-r Gaussian factor product,
    sampled at ratio sr with additive N(0, std^2) measurement noise."""

    m: int
    n: int
    r: int
    sr: float
    std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"invalid dimensions ({self.m}, {self.n})")
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError(f"rank r={self.r} out of range [1, {min(self.m, self.n)}]")
        if not 0 < self.sr <= 1:
            raise ValueError(f"sample ratio must be in (0, 1], got {self.sr}")
        if not self.std >= 0:
            raise ValueError(f"noise std must be nonnegative, got {self.std}")

    @property
    def p(self) -> int:
        """The measurement count of the operator drawn for this spec."""
        return max(int(round(self.sr * self.m * self.n)), 1)


def random_operator(kind: str, m: int, n: int, sr: float, seed: int,
                    keep_dc: bool = False) -> LinearMap:
    """The seed's random operator of `kind`, a key of OPERATORS, at sample
    ratio sr, drawn from that kind's stream; keep_dc is read by the DCT only."""
    if kind not in OPERATORS:
        raise ValueError(f"operator kind must be one of {tuple(OPERATORS)}, got {kind!r}")
    cls = OPERATORS[kind]
    return cls.random(m, n, sr, stream_rng(seed, cls.stream), keep_dc=keep_dc)


def synth_lowrank(spec: SyntheticSpec, kind: str = "dct",
                  keep_dc: bool = False) -> tuple[np.ndarray, LinearMap, np.ndarray]:
    """Draw (X*, A, b): X* = G1 G2 with standard normal factors, A the
    seed's random operator of `kind` at spec.sr, and b = A(X*) + noise."""
    rng = stream_rng(spec.seed, "factors")
    x_star = rng.standard_normal((spec.m, spec.r)) @ rng.standard_normal((spec.r, spec.n))
    a = random_operator(kind, spec.m, spec.n, spec.sr, spec.seed, keep_dc)
    b = a.apply(x_star)
    if spec.std > 0:
        b = b + spec.std * stream_rng(spec.seed, "noise").standard_normal(a.p)
    return x_star, a, b


def _parse_netpbm(blob: bytes, path) -> tuple[bytes, int, int, int, bytes]:
    """Split a netpbm blob into (magic, width, height, maxval, raster);
    headers may contain '#' comments. The three numbers must be positive
    decimal integers."""
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(blob):
            raise ValueError(f"bad image file {path}: truncated header")
        c = blob[i:i + 1]
        if c == b"#":
            j = blob.find(b"\n", i)
            i = len(blob) if j < 0 else j + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j:j + 1].isspace() and blob[j:j + 1] != b"#":
                j += 1
            tokens.append(blob[i:j])
            i = j
    magic, *numbers = tokens
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"bad image file {path}: magic {magic!r} is not binary PGM/PPM")
    for name, token in zip(("width", "height", "maxval"), numbers):
        if not token.isdigit() or int(token) == 0:
            raise ValueError(f"bad image file {path}: {name} {token.decode(errors='replace')!r} "
                             "is not a positive integer")
    # exactly one whitespace byte separates the maxval from the raster
    if i >= len(blob) or not blob[i:i + 1].isspace():
        raise ValueError(f"bad image file {path}: missing raster separator")
    return magic, *(int(t) for t in numbers), blob[i + 1:]


def load_image(path) -> list[np.ndarray]:
    """Read a binary PGM (P5) or PPM (P6) image as float64 channel matrices
    (1 for grayscale, 3 for color). Only 8-bit depth (maxval 255) is
    supported."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, width, height, maxval, raster = _parse_netpbm(blob, path)
    if maxval != 255:
        raise ValueError(f"bad image file {path}: depth {maxval} != 255")
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    if len(raster) < expected:
        raise ValueError(f"bad image file {path}: raster has {len(raster)} bytes, need {expected}")
    pixels = np.frombuffer(raster[:expected], dtype=np.uint8)
    planes = pixels.reshape(height, width, channels).astype(np.float64)
    return [planes[:, :, c] for c in range(channels)]


def save_image(channels, path) -> None:
    """Write 1 channel as binary PGM or 3 channels as binary PPM; entries are
    rounded and clipped to [0, 255]."""
    channels = [np.asarray(c, dtype=np.float64) for c in channels]
    if len(channels) not in (1, 3):
        raise ValueError(f"expected 1 or 3 channels, got {len(channels)}")
    shape = channels[0].shape
    if len(shape) != 2 or any(c.shape != shape for c in channels):
        raise ValueError("all channels must be 2-D matrices of equal shape")
    height, width = shape
    quantized = [np.clip(np.round(c), 0, 255).astype(np.uint8) for c in channels]
    magic = b"P5" if len(quantized) == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(np.stack(quantized, axis=-1).tobytes())
