"""File formats accepted by the CLI.

Density-matrix file (versioned JSON):
    {"format": "qentropy-density-matrix", "version": 1,
     "dim": N, "matrix": [[re, im], ...]}        # row-major, N*N pairs

Spectrum file: whitespace-separated reals summing to 1.
"""

import json

import numpy as np

from .errors import DimensionMismatchError
from .states import DensityMatrix, Spectrum, spectrum_from_values, validate_density

MATRIX_FORMAT = "qentropy-density-matrix"
MATRIX_VERSION = 1


class ParseError(ValueError):
    """Input file is not syntactically valid."""


def parse_density(text: str) -> DensityMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if obj.get("format", MATRIX_FORMAT) != MATRIX_FORMAT:
        raise ParseError(f"unknown format {obj.get('format')!r}")
    if obj.get("version", MATRIX_VERSION) != MATRIX_VERSION:
        raise ParseError(f"unsupported version {obj.get('version')!r}")
    try:
        dim = obj["dim"]
        pairs = obj["matrix"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if type(dim) is not int:  # JSON true parses as a bool, an int subclass
        raise ParseError(f"dim must be a JSON integer, got {dim!r}")
    if not isinstance(pairs, list):
        raise ParseError(f"matrix must be a list of [re, im] pairs, not {type(pairs).__name__}")
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    if len(pairs) != dim * dim:
        raise ParseError(f"matrix has {len(pairs)} entries, expected {dim * dim}")
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    return validate_density(flat.reshape(dim, dim))


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def load_density(path) -> DensityMatrix:
    return parse_density(_read_text(path))


def density_to_text(rho: DensityMatrix) -> str:
    pairs = [[z.real, z.imag] for z in rho.matrix.ravel()]
    return json.dumps({"format": MATRIX_FORMAT, "version": MATRIX_VERSION,
                       "dim": rho.dim, "matrix": pairs}, indent=1) + "\n"


def parse_spectrum(text: str) -> Spectrum:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty spectrum file")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"non-numeric spectrum entry: {exc}") from exc
    return spectrum_from_values(values)


def load_spectrum(path) -> Spectrum:
    return parse_spectrum(_read_text(path))
