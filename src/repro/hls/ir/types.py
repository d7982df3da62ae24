"""Type system for the HLS intermediate representation.

The HERMES HLS flow (Bambu-equivalent) operates on a small, explicit type
lattice: fixed-width signed/unsigned integers and a 32-bit float.  Types
carry enough information for bit-accurate interpretation (wrapping
arithmetic) and for hardware cost estimation (bit widths drive the
Eucalyptus component characterization).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """Base class for IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """Fixed-width integer type.

    ``width`` is the bit width (8/16/32/64 from C declarations, arbitrary
    after bit-width analysis), ``signed`` selects two's-complement
    interpretation.
    """

    width: int
    signed: bool = True

    def __str__(self) -> str:
        prefix = "i" if self.signed else "u"
        return f"{prefix}{self.width}"

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into this type's range (two's complement)."""
        mask = (1 << self.width) - 1
        value &= mask
        if self.signed and value >= (1 << (self.width - 1)):
            value -= 1 << self.width
        return value


@dataclass(frozen=True)
class FloatType(Type):
    """IEEE-754 floating point; only binary32 is used by the C front end."""

    width: int = 32

    def __str__(self) -> str:
        return f"f{self.width}"

    def round(self, value: float) -> float:
        """Round a Python float to binary32 precision (binary64 passthrough)."""
        if self.width == 32:
            return struct.unpack("<f", struct.pack("<f", value))[0]
        return float(value)


@dataclass(frozen=True)
class ArrayType(Type):
    """Statically sized (possibly multidimensional) array."""

    element: Type
    dims: tuple

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        return f"{self.element}{dims}"

    @property
    def size(self) -> int:
        total = 1
        for dim in self.dims:
            total *= dim
        return total


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to an element type.

    Pointer parameters are treated as external memory interfaces (BRAM or
    AXI4 master depending on interface configuration), matching the paper's
    description of Bambu's interface synthesis.
    """

    element: Type

    def __str__(self) -> str:
        return f"{self.element}*"


VOID = VoidType()
BOOL = IntType(1, signed=False)
I8 = IntType(8, True)
I16 = IntType(16, True)
I32 = IntType(32, True)
I64 = IntType(64, True)
U8 = IntType(8, False)
U16 = IntType(16, False)
U32 = IntType(32, False)
U64 = IntType(64, False)
F32 = FloatType(32)

_C_TYPE_NAMES = {
    ("void",): VOID,
    ("char",): I8,
    ("signed", "char"): I8,
    ("unsigned", "char"): U8,
    ("short",): I16,
    ("short", "int"): I16,
    ("unsigned", "short"): U16,
    ("unsigned", "short", "int"): U16,
    ("int",): I32,
    ("signed",): I32,
    ("signed", "int"): I32,
    ("unsigned",): U32,
    ("unsigned", "int"): U32,
    ("long",): I32,
    ("long", "int"): I32,
    ("unsigned", "long"): U32,
    ("long", "long"): I64,
    ("long", "long", "int"): I64,
    ("unsigned", "long", "long"): U64,
    ("float",): F32,
    ("_Bool",): BOOL,
}

_TYPEDEF_NAMES = {
    "int8_t": I8,
    "int16_t": I16,
    "int32_t": I32,
    "int64_t": I64,
    "uint8_t": U8,
    "uint16_t": U16,
    "uint32_t": U32,
    "uint64_t": U64,
    "size_t": U32,
    "bool": BOOL,
}


def c_type_from_specifiers(specifiers) -> Type:
    """Resolve a sequence of C type-specifier keywords to an IR type."""
    key = tuple(specifiers)
    if key in _C_TYPE_NAMES:
        return _C_TYPE_NAMES[key]
    if len(key) == 1 and key[0] in _TYPEDEF_NAMES:
        return _TYPEDEF_NAMES[key[0]]
    raise ValueError(f"unsupported C type: {' '.join(specifiers)}")


def is_integer(ty: Type) -> bool:
    return isinstance(ty, IntType)


def is_float(ty: Type) -> bool:
    return isinstance(ty, FloatType)


def is_scalar(ty: Type) -> bool:
    return isinstance(ty, (IntType, FloatType))


def common_type(a: Type, b: Type) -> Type:
    """C-style usual arithmetic conversions (restricted to our lattice)."""
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        return F32
    if not (isinstance(a, IntType) and isinstance(b, IntType)):
        raise TypeError(f"no common type for {a} and {b}")
    # Integer promotion first: anything narrower than int becomes int.
    if a.width < 32:
        a = I32
    if b.width < 32:
        b = I32
    if a.width != b.width:
        return a if a.width > b.width else b
    return IntType(a.width, a.signed and b.signed)
