"""Semantic analysis for HermesC: name resolution and type checking.

Annotates every expression node with its IR type and rejects programs
outside the supported subset with located diagnostics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.types import (
    BOOL,
    F32,
    I32,
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    Type,
    VoidType,
    common_type,
    is_scalar,
)
from . import ast

# Intrinsic math functions recognized by the front end (synthesized to
# dedicated functional units, mirroring Bambu's libm support).
INTRINSICS: Dict[str, tuple] = {
    "abs": (I32, [I32]),
    "min": (I32, [I32, I32]),
    "max": (I32, [I32, I32]),
    "fabsf": (F32, [F32]),
    "sqrtf": (F32, [F32]),
    "fminf": (F32, [F32, F32]),
    "fmaxf": (F32, [F32, F32]),
}


class SemanticError(Exception):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, Type] = {}

    def declare(self, name: str, ty: Type, line: int) -> None:
        if name in self.symbols:
            raise SemanticError(f"redeclaration of {name!r}", line)
        self.symbols[name] = ty

    def lookup(self, name: str) -> Optional[Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class _FunctionSignature:
    def __init__(self, func: ast.FunctionDef) -> None:
        self.name = func.name
        self.return_type = func.return_type
        self.param_types: List[Type] = []
        for param in func.params:
            if param.is_array:
                if param.dims:
                    self.param_types.append(ArrayType(param.type, tuple(param.dims)))
                else:
                    self.param_types.append(PointerType(param.type))
            else:
                self.param_types.append(param.type)


class Analyzer:
    """Checks a translation unit and annotates expression types in place."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self.signatures: Dict[str, _FunctionSignature] = {}
        self.globals = _Scope()

    def run(self) -> ast.TranslationUnit:
        for decl in self.unit.globals:
            if decl.dims:
                if decl.array_init is None and not decl.is_const:
                    # mutable global arrays are allowed (become shared BRAM)
                    pass
                self.globals.declare(decl.name,
                                     ArrayType(decl.var_type, tuple(decl.dims)),
                                     decl.line)
            else:
                if decl.init is None:
                    raise SemanticError(
                        f"global scalar {decl.name!r} needs a constant initializer",
                        decl.line)
                self._check_expr(decl.init, self.globals)
                self.globals.declare(decl.name, decl.var_type, decl.line)
        for func in self.unit.functions:
            if func.name in self.signatures:
                raise SemanticError(f"redefinition of {func.name!r}", func.line)
            self.signatures[func.name] = _FunctionSignature(func)
        for func in self.unit.functions:
            self._check_function(func)
        return self.unit

    # -- functions -----------------------------------------------------

    def _check_function(self, func: ast.FunctionDef) -> None:
        scope = _Scope(self.globals)
        for param in func.params:
            if param.is_array:
                if param.dims:
                    ty: Type = ArrayType(param.type, tuple(param.dims))
                else:
                    ty = PointerType(param.type)
            else:
                ty = param.type
            scope.declare(param.name, ty, param.line)
        self._check_block(func.body, scope, func)

    def _check_block(self, block: ast.Block, scope: _Scope,
                     func: ast.FunctionDef) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner, func)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope,
                    func: ast.FunctionDef) -> None:
        if isinstance(stmt, ast.Declaration):
            self._check_declaration(stmt, scope)
        elif isinstance(stmt, ast.Assignment):
            self._check_assignment(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt, scope, func)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._check_expr(stmt.cond, scope), stmt.line)
            self._check_block(stmt.then, scope, func)
            if stmt.orelse is not None:
                self._check_block(stmt.orelse, scope, func)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._require_scalar(self._check_expr(stmt.cond, scope), stmt.line)
            self._check_block(stmt.body, scope, func)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner, func)
            if stmt.cond is not None:
                self._require_scalar(self._check_expr(stmt.cond, inner), stmt.line)
            if stmt.step is not None:
                self._check_stmt(stmt.step, inner, func)
            self._check_block(stmt.body, inner, func)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if isinstance(func.return_type, VoidType):
                    raise SemanticError("void function returns a value", stmt.line)
                self._check_expr(stmt.value, scope)
            elif not isinstance(func.return_type, VoidType):
                raise SemanticError("non-void function returns nothing", stmt.line)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover
            raise SemanticError(f"unsupported statement {type(stmt).__name__}",
                                stmt.line)

    def _check_declaration(self, decl: ast.Declaration, scope: _Scope) -> None:
        if isinstance(decl.var_type, VoidType):
            raise SemanticError("cannot declare void variable", decl.line)
        if decl.dims:
            for dim in decl.dims:
                if dim <= 0:
                    raise SemanticError("array dimension must be positive",
                                        decl.line)
            total = 1
            for dim in decl.dims:
                total *= dim
            if decl.array_init is not None and len(decl.array_init) > total:
                raise SemanticError("too many array initializers", decl.line)
            scope.declare(decl.name, ArrayType(decl.var_type, tuple(decl.dims)),
                          decl.line)
        else:
            if decl.init is not None:
                self._check_expr(decl.init, scope)
            scope.declare(decl.name, decl.var_type, decl.line)

    def _check_assignment(self, stmt: ast.Assignment, scope: _Scope) -> None:
        value_ty = self._check_expr(stmt.value, scope)
        self._require_scalar(value_ty, stmt.line)
        target = stmt.target
        if isinstance(target, ast.NameRef):
            ty = scope.lookup(target.name)
            if ty is None:
                raise SemanticError(f"undeclared variable {target.name!r}",
                                    stmt.line)
            if not is_scalar(ty):
                raise SemanticError(
                    f"cannot assign whole array {target.name!r}", stmt.line)
            target.type = ty
        elif isinstance(target, ast.ArrayRef):
            self._check_array_ref(target, scope)
        else:  # pragma: no cover
            raise SemanticError("invalid assignment target", stmt.line)

    # -- expressions -----------------------------------------------------

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> Type:
        ty = self._infer(expr, scope)
        expr.type = ty
        return ty

    def _infer(self, expr: ast.Expr, scope: _Scope) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return I32 if -(1 << 31) <= expr.value < (1 << 31) else IntType(64, True)
        if isinstance(expr, ast.FloatLiteral):
            return F32
        if isinstance(expr, ast.NameRef):
            ty = scope.lookup(expr.name)
            if ty is None:
                raise SemanticError(f"undeclared variable {expr.name!r}", expr.line)
            if not is_scalar(ty):
                raise SemanticError(
                    f"array {expr.name!r} used without subscript", expr.line)
            return ty
        if isinstance(expr, ast.ArrayRef):
            return self._check_array_ref(expr, scope)
        if isinstance(expr, ast.Unary):
            operand_ty = self._check_expr(expr.operand, scope)
            self._require_scalar(operand_ty, expr.line)
            if expr.op == "not":
                return BOOL
            if expr.op == "bnot" and isinstance(operand_ty, FloatType):
                raise SemanticError("bitwise not on float", expr.line)
            if isinstance(operand_ty, IntType) and operand_ty.width < 32:
                return I32  # integer promotion
            return operand_ty
        if isinstance(expr, ast.Binary):
            lhs_ty = self._check_expr(expr.lhs, scope)
            rhs_ty = self._check_expr(expr.rhs, scope)
            self._require_scalar(lhs_ty, expr.line)
            self._require_scalar(rhs_ty, expr.line)
            if expr.op in ("land", "lor"):
                return BOOL
            if expr.op in ("eq", "ne", "lt", "le", "gt", "ge"):
                common_type(lhs_ty, rhs_ty)  # validates compatibility
                return BOOL
            if expr.op in ("and", "or", "xor", "shl", "shr", "rem"):
                if isinstance(lhs_ty, FloatType) or isinstance(rhs_ty, FloatType):
                    raise SemanticError(f"{expr.op} requires integer operands",
                                        expr.line)
            if expr.op in ("shl", "shr"):
                base = lhs_ty
                if isinstance(base, IntType) and base.width < 32:
                    base = I32  # integer promotion
                return base
            return common_type(lhs_ty, rhs_ty)
        if isinstance(expr, ast.Conditional):
            self._require_scalar(self._check_expr(expr.cond, scope), expr.line)
            true_ty = self._check_expr(expr.if_true, scope)
            false_ty = self._check_expr(expr.if_false, scope)
            return common_type(true_ty, false_ty)
        if isinstance(expr, ast.CastExpr):
            self._check_expr(expr.operand, scope)
            if not is_scalar(expr.target):
                raise SemanticError("cast target must be scalar", expr.line)
            return expr.target
        if isinstance(expr, ast.CallExpr):
            return self._check_call(expr, scope)
        raise SemanticError(f"unsupported expression {type(expr).__name__}",
                            expr.line)  # pragma: no cover

    def _check_array_ref(self, ref: ast.ArrayRef, scope: _Scope) -> Type:
        ty = scope.lookup(ref.name)
        if ty is None:
            raise SemanticError(f"undeclared array {ref.name!r}", ref.line)
        for index in ref.indices:
            index_ty = self._check_expr(index, scope)
            if not isinstance(index_ty, IntType):
                raise SemanticError("array index must be integer", ref.line)
        if isinstance(ty, ArrayType):
            if len(ref.indices) != len(ty.dims):
                raise SemanticError(
                    f"array {ref.name!r} expects {len(ty.dims)} indices, "
                    f"got {len(ref.indices)}", ref.line)
            ref.type = ty.element
            return ty.element
        if isinstance(ty, PointerType):
            if len(ref.indices) != 1:
                raise SemanticError(
                    f"pointer {ref.name!r} expects one index", ref.line)
            ref.type = ty.element
            return ty.element
        raise SemanticError(f"{ref.name!r} is not an array", ref.line)

    def _check_call(self, call: ast.CallExpr, scope: _Scope) -> Type:
        if call.callee in INTRINSICS:
            ret, param_types = INTRINSICS[call.callee]
            if len(call.args) != len(param_types):
                raise SemanticError(
                    f"{call.callee} expects {len(param_types)} arguments",
                    call.line)
            for arg in call.args:
                self._require_scalar(self._check_expr(arg, scope), call.line)
            return ret
        sig = self.signatures.get(call.callee)
        if sig is None:
            raise SemanticError(f"call to unknown function {call.callee!r}",
                                call.line)
        if len(call.args) != len(sig.param_types):
            raise SemanticError(
                f"{call.callee} expects {len(sig.param_types)} arguments, "
                f"got {len(call.args)}", call.line)
        for arg, param_ty in zip(call.args, sig.param_types):
            if isinstance(param_ty, (ArrayType, PointerType)):
                if not isinstance(arg, (ast.NameRef, ast.ArrayRef)) or (
                        isinstance(arg, ast.ArrayRef) and arg.indices):
                    raise SemanticError(
                        "array argument must be an array name", call.line)
                name = arg.name
                actual = scope.lookup(name)
                if not isinstance(actual, (ArrayType, PointerType)):
                    raise SemanticError(
                        f"argument {name!r} is not an array", call.line)
                arg.type = actual
            else:
                self._require_scalar(self._check_expr(arg, scope), call.line)
        return sig.return_type

    @staticmethod
    def _require_scalar(ty: Type, line: int) -> None:
        if not is_scalar(ty):
            raise SemanticError(f"expected scalar value, got {ty}", line)


def analyze(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Run semantic analysis; returns the annotated unit."""
    return Analyzer(unit).run()
