"""Exception hierarchy shared across the toolkit."""

import math
from numbers import Integral, Real


class AdaptScoreError(Exception):
    """Base class for all toolkit errors."""


class DataError(AdaptScoreError):
    """Malformed or degenerate input data."""


class ZeroVector(DataError):
    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"row {row_index} has (near-)zero norm and cannot be normalized")


class DimensionMismatch(DataError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"dimension mismatch: expected {expected}, got {got}")


class DegenerateClass(DataError):
    def __init__(self, class_id: int):
        self.class_id = class_id
        super().__init__(f"class {class_id} sums to a (near-)zero vector; centroid undefined")


class MissingClass(DataError):
    def __init__(self, class_id: int):
        self.class_id = class_id
        super().__init__(f"class {class_id} has no members")


class TooFewClasses(DataError):
    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        super().__init__(f"need at least 2 classes, got {num_classes}")


class TooFewSamples(DataError):
    def __init__(self, needed: int, got: int):
        self.needed = needed
        self.got = got
        super().__init__(f"need at least {needed} samples, got {got}")


class LabelOutOfRange(DataError):
    def __init__(self, label: int, num_classes: int):
        self.label = label
        self.num_classes = num_classes
        super().__init__(f"label {label} outside [0, {num_classes})")


class SingletonClass(DataError):
    def __init__(self, class_id: int):
        self.class_id = class_id
        super().__init__(f"class {class_id} has a single member; silhouette undefined")


class LengthMismatch(DataError):
    def __init__(self, len_x: int, len_y: int):
        self.len_x = len_x
        self.len_y = len_y
        super().__init__(f"length mismatch: {len_x} vs {len_y}")


class ConstantInput(DataError):
    def __init__(self):
        super().__init__("both inputs are constant; correlation undefined")


class MissingScore(DataError):
    def __init__(self, candidate_id: str, method: str):
        self.candidate_id = candidate_id
        self.method = method
        super().__init__(f"candidate {candidate_id!r} has no score for method {method!r}")


class ConfigInvalid(AdaptScoreError):
    pass


def check_fields(config, integers=(), reals=()) -> None:
    """ConfigInvalid unless each field of `config` named in `integers` is
    an integer and each named in `reals` a finite real number. A bool is
    neither, and JSON's NaN and Infinity load as floats."""
    for name in integers + reals:
        v = getattr(config, name)
        integer = name in integers
        ok = not isinstance(v, bool) and isinstance(v, Integral if integer else Real)
        if not (ok and (isinstance(v, Integral) or math.isfinite(v))):  # a huge int overflows isfinite
            raise ConfigInvalid(f"{name} must be {'an integer' if integer else 'a finite number'}, got {v!r}")


class FormatError(AdaptScoreError):
    """On-disk format violations."""


class BadMagic(FormatError):
    def __init__(self, path: str, magic: bytes):
        self.path = path
        self.magic = magic
        super().__init__(f"{path}: unrecognized magic bytes {magic!r}")


class TruncatedFile(FormatError):
    def __init__(self, path: str, expected: int, got: int):
        self.path = path
        self.expected = expected
        self.got = got
        super().__init__(f"{path}: expected {expected} bytes, got {got}")


class RaggedCsv(FormatError):
    def __init__(self, path: str, line: int, why: str = "has the wrong field count or an unparsable value"):
        self.path = path
        self.line = line
        super().__init__(f"{path}: line {line} {why}")


class NonFiniteValue(FormatError, ValueError):
    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, col {col}")


class LabelCountMismatch(FormatError, ValueError):
    def __init__(self, labels: int, rows: int):
        self.labels = labels
        self.rows = rows
        super().__init__(f"{labels} labels for {rows} embedding rows")


class ManifestError(FormatError, ValueError):
    """A manifest or one of its entries is not a JSON object, lacks a
    required key or repeats a candidate id."""
