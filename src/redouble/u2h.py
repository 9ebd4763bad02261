"""Shifted partial derivatives on a compact rank-2 enveloping algebra.

Two layers.  The general layer builds, over any Hecke braiding, the
derivative-side double on the shift-deformed coordinate algebra and
checks at construction that it is the generator shift of the plain
derivative double; for involutive braidings it also exposes the rule for
derivatives shifted by h^-1, whose Leibniz structure is a matrix
coproduct.

The concrete layer works over Q(h) with the rank-2 compact basis: an
enveloping algebra on x, y, z, t with brackets [x, y] = h z (cyclic in
x, y, z) and central t, realized through exact normal forms ordered
x < y < z < t.  Four derivative symbols push through words by a
sixteen-entry table and cap with their counits; arranged into a 4x4
matrix with prefactor h/2 (a MatrixOverAlgebra with PBWElement
entries) they give an algebra homomorphism into matrices over the
algebra.  A central square root of x^2+y^2+z^2-h^2/4
(the radius) extends the algebra by Laurent powers, and the
homomorphism property extends to it with closed-form derivative values.
"""

from __future__ import annotations

import itertools

from .anchors import anchor
from .braidings import Braiding, flip, standard_hecke
from .doubles import DoubleError, QuantumDouble, make_double, matrix_copy
from .linalg import accumulate, vec_add_scaled
from .ncengine import (Gen, MatrixOverAlgebra, NCElement, matrix_generators,
                       re_relation_matrix)
from .reports import VerificationReport
from .scalars import Scalar


class UnsupportedElementError(ValueError):
    """Raised when a derivative is applied outside its defined domain."""


# ---------------------------------------------------------------------------
# The general shift-deformed doubles

def _shift_substitution_residual(braiding: Braiding, h: Scalar):
    """Residual of rewriting the plain derivative rule in shifted generators.

    Substituting  coordinate = h I - nu * shifted  and  derivative =
    -nu^-1 * shifted derivative  into the plain mixed rule must reproduce
    the shifted mixed rule on the nose, and the same substitution must
    carry the coordinate-side quadratic relations onto nu^2 times the
    shift-deformed ones.  Returns (mixed residual, quadratic residual).
    """
    r = braiding.op
    rinv = braiding.inv
    dim = braiding.dim
    v = braiding.q - braiding.q.inverse()
    d1 = MatrixOverAlgebra.generator_matrix("d", dim, 2, 1)
    n1 = MatrixOverAlgebra.generator_matrix("n", dim, 2, 1)
    ident = MatrixOverAlgebra.identity(dim, 2)
    m_sub = ident.scale(h) - n1.scale(v)
    d_sub = d1.scale(-v.inverse())

    def mixed(d, m, shift):
        out = (d.rmul_op(r) * m).rmul_op(r) \
            - (m.lmul_op(r).rmul_op(rinv)) * d \
            - MatrixOverAlgebra.from_operator(r)
        if shift is not None:
            out = out - d.rmul_op(r).scale(shift)
        return out

    mixed_residual = mixed(d_sub, m_sub, None) - mixed(d1, n1, h)
    quad_residual = re_relation_matrix(m_sub, r, None) \
        - re_relation_matrix(n1, r, h).scale(v * v)
    return mixed_residual, quad_residual


def h_shifted_double(braiding: Braiding, h: Scalar) -> QuantumDouble:
    """Derivative double over the coordinate algebra deformed by shift h.

    For a strictly braided (non-involutive) Hecke symmetry the
    construction is validated by the generator substitution linking it
    to the plain derivative double; a mismatch raises DoubleError.
    """
    double = make_double(braiding, "derivative_shifted", h=h)
    if not (braiding.q - braiding.q.inverse()).is_zero():
        mixed_residual, quad_residual = \
            _shift_substitution_residual(braiding, h)
        if not (mixed_residual.is_zero() and quad_residual.is_zero()):
            raise DoubleError("shift substitution does not reproduce "
                              "the deformed relations")
    return double


def shifted_derivative_relations(braiding: Braiding, h: Scalar):
    """Permutation rule for the derivatives shifted by h^-1 on the diagonal.

    Only defined over involutive braidings; the companion coproduct is
    given by shifted_coproduct.
    """
    return make_double(braiding, "derivative_shifted_unit", h=h).rule


def shifted_coproduct(dim: int, tag: str = "d") -> dict:
    """Matrix coproduct of the h^-1-shifted derivatives.

    The (row, col) symbol splits as the sum over k of the (k, col)
    symbol tensor the (row, k) symbol, matching matrix multiplication of
    the derivative matrix; the counit h^-1*identity is its counit.
    """
    table = {}
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            table[Gen(tag, i, j)] = tuple(
                (Gen(tag, k, j), Gen(tag, i, k))
                for k in range(1, dim + 1))
    return table


def verify_shift_structure() -> VerificationReport:
    """Construction-level checks of the shift-deformed doubles.

    Covers the generator-substitution consistency over a strict Hecke
    braiding, the derivative action on the conjugated coordinate copy,
    the Kronecker action over the plain flip, the shape of the
    involutive shifted rule (one swap term plus at most one h-multiple
    correction per generator pair), the coproduct counit axiom, and the
    coproduct route against the permutation route on generator pairs.
    """
    report = VerificationReport("u2h", {"layer": "doubles"})
    b = standard_hecke(2)
    try:
        double = h_shifted_double(b, Scalar.from_fraction("7/3"))
        ok, witness = True, None
    except DoubleError as err:
        double, ok, witness = None, False, str(err)
    report.add("substitution-consistency",
               anchor("double-rule-derivative_shifted"), ok, witness)
    if double is not None:
        d1 = MatrixOverAlgebra.generator_matrix(double.a_tag, 2, 2, 1)
        n2 = matrix_copy(b, double.b_tag, 2, "OVER")
        acted = double.act_matrix(d1, n2)
        ok = acted == MatrixOverAlgebra.from_operator(b.inv)
        report.add("generator-action", anchor("double-action-derivative"),
                   ok, None if ok else repr(acted))
    hp = Scalar.var("h")
    p = flip(2, "h")
    classical = make_double(p, "derivative_shifted", h=hp)
    ok = True
    witness = None
    for gd in matrix_generators(classical.a_tag, 2):
        for gn in matrix_generators(classical.b_tag, 2):
            got = classical.act(NCElement.generator(gd),
                                NCElement.generator(gn))
            want = Scalar.from_int(
                1 if gd.row == gn.col and gd.col == gn.row else 0, "h")
            if got != NCElement.constant(want):
                ok = False
                witness = f"{gd} on {gn}: {got!r}"
    report.add("classical-generator-action", anchor("u2h-classical-limit"),
               ok, witness)
    rule = shifted_derivative_relations(p, hp)
    ok = len(rule.table) == 16
    witness = None
    for (gd, gn), image in rule.table.items():
        swap = dict(image.terms)
        moved = swap.pop((gn, gd), None)
        if moved != Scalar.from_int(1, "h") or len(swap) > 1 or any(
                len(w) != 1 or w[0].tag != gd.tag or c != hp
                for w, c in swap.items()):
            ok = False
            witness = f"{gd},{gn}: {image!r}"
            break
    report.add("shifted-rule-shape", anchor("u2h-structural-counts"),
               ok, witness)
    unit_double = make_double(p, "derivative_shifted_unit", h=hp)
    cop = shifted_coproduct(2, unit_double.a_tag)
    hinv = hp.inverse()
    ok = all(
        sum((NCElement.word((right,), unit_double.eps_a[left])
             for left, right in parts), NCElement.zero())
        == NCElement.word((g,), hinv)
        for g, parts in cop.items())
    report.add("coproduct-counit", anchor("u2h-coproduct-route"), ok, None)
    ok = True
    witness = None
    n_gens = matrix_generators(unit_double.b_tag, 2)
    for g, parts in cop.items():
        for ga, gb in itertools.product(n_gens, repeat=2):
            target = NCElement.word((ga, gb))
            direct = unit_double.act(NCElement.generator(g), target)
            split = NCElement.zero()
            for left, right in parts:
                split = split + \
                    unit_double.act(NCElement.generator(left),
                                    NCElement.generator(ga)) * \
                    unit_double.act(NCElement.generator(right),
                                    NCElement.generator(gb))
            if not unit_double.b_pres.reduces_to_zero(
                    direct - split.scale(hp)):
                ok = False
                witness = f"{g} on {ga},{gb}"
                break
        if not ok:
            break
    report.add("coproduct-route", anchor("u2h-coproduct-route"), ok, witness)
    return report


# ---------------------------------------------------------------------------
# The compact rank-2 algebra over Q(h)

H = Scalar.var("h")
H_ONE = Scalar.from_int(1, "h")
H_ZERO = Scalar.from_int(0, "h")
HALF_H = H * Scalar.from_fraction("1/2", "h")
COUNIT_SHIFT = HALF_H.inverse()                       # 2/h
RADIUS_CONST = H * H * Scalar.from_fraction("-1/4", "h")

_X, _Y, _Z, _T, _R = range(5)
_ZERO_KEY = (0, 0, 0, 0, 0)
GENERATOR_ORDER = ("x", "y", "z", "t")

# g1 g0 = g0 g1 + coeff * (single letter), for letter indices g1 > g0
_STRAIGHTEN = {
    (_Y, _X): (_Z, -H),
    (_Z, _X): (_Y, H),
    (_Z, _Y): (_X, -H),
}


_straighten_cache: dict = {}


def _straighten_word(word: tuple) -> dict:
    cached = _straighten_cache.get(word)
    if cached is not None:
        return cached
    pos = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]),
               None)
    if pos is None:
        out = {word: H_ONE}
    else:
        swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2:]
        letter, coeff = _STRAIGHTEN[(word[pos], word[pos + 1])]
        out = dict(_straighten_word(swapped))
        shorter = word[:pos] + (letter,) + word[pos + 2:]
        vec_add_scaled(out, _straighten_word(shorter), coeff)
    _straighten_cache[word] = out
    return out


def _xyz_letters(key: tuple) -> tuple:
    return (_X,) * key[0] + (_Y,) * key[1] + (_Z,) * key[2]


def _mono_mul_raw(k1: tuple, k2: tuple) -> dict:
    """Product of two monomial keys, straightened but not radius-reduced."""
    out = {}
    tails = (k1[3] + k2[3], k1[4] + k2[4])
    for w, c in _straighten_word(_xyz_letters(k1) + _xyz_letters(k2)).items():
        accumulate(out, (w.count(_X), w.count(_Y), w.count(_Z)) + tails, c)
    return out


_RADIUS_SQ = {(2, 0, 0, 0, 0): H_ONE, (0, 2, 0, 0, 0): H_ONE,
              (0, 0, 2, 0, 0): H_ONE, _ZERO_KEY: RADIUS_CONST}


def _reduce_radius(raw: dict) -> dict:
    out: dict = {}
    pending = list(raw.items())
    while pending:
        key, c = pending.pop()
        if c.is_zero():
            continue
        if key[4] >= 2:
            base = key[:4] + (key[4] - 2,)
            for sq_key, sq_c in _RADIUS_SQ.items():
                for k, kc in _mono_mul_raw(base, sq_key).items():
                    pending.append((k, c * sq_c * kc))
            continue
        accumulate(out, key, c)
    return out


class PBWElement:
    """Element of the compact algebra in the ordered-monomial basis.

    Terms map exponent keys (a, b, c, d, e) to Q(h) coefficients,
    standing for x^a y^b z^c t^d radius^e; the radius exponent stays
    below 2 (its square rewrites to x^2+y^2+z^2-h^2/4) and may be
    negative in the extension.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "PBWElement":
        return cls({})

    @classmethod
    def constant(cls, c: Scalar) -> "PBWElement":
        return cls({_ZERO_KEY: c}) if not c.is_zero() else cls({})

    @classmethod
    def one(cls) -> "PBWElement":
        return cls.constant(H_ONE)

    @classmethod
    def monomial(cls, key: tuple, c: Scalar = H_ONE) -> "PBWElement":
        return cls(_reduce_radius({tuple(key): c}))

    @classmethod
    def generator(cls, name: str) -> "PBWElement":
        pos = GENERATOR_ORDER.index(name)
        key = tuple(1 if i == pos else 0 for i in range(5))
        return cls({key: H_ONE})

    @classmethod
    def radius(cls, power: int = 1) -> "PBWElement":
        return cls.monomial((0, 0, 0, 0, power))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PBWElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return PBWElement(out)

    def __sub__(self, other):
        return self + other.scale(-H_ONE)

    def __neg__(self):
        return self.scale(-H_ONE)

    def scale(self, c: Scalar) -> "PBWElement":
        if c.is_zero():
            return PBWElement({})
        return PBWElement({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, PBWElement):
            return NotImplemented
        raw: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                vec_add_scaled(raw, _mono_mul_raw(k1, k2), c1 * c2)
        return PBWElement(_reduce_radius(raw))

    def degree(self) -> int:
        return max((k[0] + k[1] + k[2] + k[3] + max(k[4], 0)
                    for k in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = GENERATOR_ORDER + ("r",)
        bits = []
        for key in sorted(self.terms):
            word = "*".join(f"{names[i]}^{e}" if e != 1 else names[i]
                            for i, e in enumerate(key) if e)
            c = self.terms[key].text()
            bits.append(f"({c})*{word}" if word else f"({c})")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Derivative symbols and the pushing table

DT, DX, DY, DZ = "dt", "dx", "dy", "dz"
DERIVATIVE_SYMBOLS = (DT, DX, DY, DZ)

COUNIT = {DT: COUNIT_SHIFT, DX: H_ZERO, DY: H_ZERO, DZ: H_ZERO}

# symbol * letter - letter * symbol = (h/2) * sign * target symbol
_PUSH = {
    (DT, _X): (DX, -1), (DT, _Y): (DY, -1), (DT, _Z): (DZ, -1),
    (DT, _T): (DT, 1),
    (DX, _X): (DT, 1), (DX, _Y): (DZ, 1), (DX, _Z): (DY, -1),
    (DX, _T): (DX, 1),
    (DY, _X): (DZ, -1), (DY, _Y): (DT, 1), (DY, _Z): (DX, 1),
    (DY, _T): (DY, 1),
    (DZ, _X): (DY, 1), (DZ, _Y): (DX, -1), (DZ, _Z): (DT, 1),
    (DZ, _T): (DZ, 1),
}

_LETTER_KEYS = tuple(tuple(1 if i == pos else 0 for i in range(5))
                     for pos in range(4))

_RADIUS_ACTION = {
    DT: {(0, 0, 0, 0, 1): COUNIT_SHIFT, (0, 0, 0, 0, -1): -HALF_H},
    DX: {(1, 0, 0, 0, -1): H_ONE},
    DY: {(0, 1, 0, 0, -1): H_ONE},
    DZ: {(0, 0, 1, 0, -1): H_ONE},
}

_act_cache: dict = {}


def _act_letters(sym: str, letters: tuple) -> PBWElement:
    cached = _act_cache.get((sym, letters))
    if cached is not None:
        return cached
    if not letters:
        out = PBWElement.constant(COUNIT[sym])
    else:
        head, rest = letters[0], letters[1:]
        out = PBWElement({_LETTER_KEYS[head]: H_ONE}) * _act_letters(sym, rest)
        target, sign = _PUSH[(sym, head)]
        out = out + _act_letters(target, rest).scale(
            HALF_H if sign > 0 else -HALF_H)
    _act_cache[(sym, letters)] = out
    return out


def apply_derivative(sym: str, a: PBWElement) -> PBWElement:
    """Push the symbol through a, capping trailing symbols with counits.

    Polynomial terms go through the sixteen-entry table; the bare radius
    letter uses its closed-form values; other radius powers are outside
    the defined domain.
    """
    if sym not in COUNIT:
        raise ValueError(f"unknown derivative symbol {sym!r}")
    out = PBWElement.zero()
    for key, coeff in a.terms.items():
        if key[4] == 0:
            word = _xyz_letters(key) + (_T,) * key[3]
            res = _act_letters(sym, word)
        elif key == (0, 0, 0, 0, 1):
            res = PBWElement(dict(_RADIUS_ACTION[sym]))
        else:
            raise UnsupportedElementError(
                f"derivative undefined on radius power {key[4]}")
        out = out + res.scale(coeff)
    return out


def radius_cleared_is_zero(a: PBWElement) -> bool:
    """Zero test in the radius extension.

    Negative radius powers are exponent-keyed, so elements that differ
    by the square relation can look distinct; multiplying by an even
    radius power is injective (the square is the central quadratic
    polynomial, and the ring has no zero divisors) and lands in the
    polynomial sector where reduced forms are unique.
    """
    low = min((k[4] for k in a.terms), default=0)
    if low >= 0:
        return a.is_zero()
    lift = 2 * ((1 - low) // 2)
    raised = {k[:4] + (k[4] + lift,): c for k, c in a.terms.items()}
    return not _reduce_radius(raised)


# ---------------------------------------------------------------------------
# The derivative matrix

_DHAT_PATTERN = (
    ((1, DT), (1, DX), (1, DY), (1, DZ)),
    ((-1, DX), (1, DT), (-1, DZ), (1, DY)),
    ((-1, DY), (1, DZ), (1, DT), (-1, DX)),
    ((-1, DZ), (-1, DY), (1, DX), (1, DT)),
)

_RADIUS_PATTERN = (
    (None, ("x", 1), ("y", 1), ("z", 1)),
    (("x", -1), None, ("z", -1), ("y", 1)),
    (("y", -1), ("z", 1), None, ("x", -1)),
    (("z", -1), ("y", -1), ("x", 1), None),
)


def _matrix(entries: dict) -> MatrixOverAlgebra:
    """4x4 matrix over the compact algebra from {(i, j): entry}, 0-based."""
    rows: dict = {}
    for (i, j), v in entries.items():
        if not v.is_zero():
            rows.setdefault((i + 1,), {})[(j + 1,)] = v
    return MatrixOverAlgebra(4, 1, 1, rows)


def dhat_matrix(a: PBWElement) -> MatrixOverAlgebra:
    """Apply the sign pattern of derivatives to a, with prefactor h/2."""
    entries = {}
    for i, row in enumerate(_DHAT_PATTERN):
        for j, (sign, sym) in enumerate(row):
            entries[(i, j)] = apply_derivative(sym, a).scale(
                HALF_H if sign > 0 else -HALF_H)
    return _matrix(entries)


def expected_radius_matrix() -> MatrixOverAlgebra:
    """Closed form of the derivative matrix on the radius letter."""
    diag = PBWElement.radius() + PBWElement.radius(-1).scale(RADIUS_CONST)
    entries = {(i, i): diag for i in range(4)}
    inv = PBWElement.radius(-1).scale(HALF_H)
    for i, row in enumerate(_RADIUS_PATTERN):
        for j, cell in enumerate(row):
            if cell is None:
                continue
            name, sign = cell
            value = PBWElement.generator(name) * inv
            entries[(i, j)] = value if sign > 0 else -value
    return _matrix(entries)


# ---------------------------------------------------------------------------
# Reports

def _polynomial_keys(degree: int):
    for total in range(degree + 1):
        for word in itertools.combinations_with_replacement(range(4), total):
            yield (word.count(_X), word.count(_Y), word.count(_Z),
                   word.count(_T), 0)


def verify_derivative_commutativity(degree: int = 3) -> VerificationReport:
    """All symbol pairs commute on every monomial of bounded degree."""
    report = VerificationReport("u2h", {"layer": "calculus",
                                        "degree": degree})
    ok = True
    witness = None
    for key in _polynomial_keys(degree):
        a = PBWElement.monomial(key)
        for s1, s2 in itertools.combinations(DERIVATIVE_SYMBOLS, 2):
            one = apply_derivative(s1, apply_derivative(s2, a))
            two = apply_derivative(s2, apply_derivative(s1, a))
            if one != two:
                ok = False
                witness = f"{s1},{s2} on {key}"
                break
        if not ok:
            break
    report.add("commutativity", anchor("u2h-commutativity"), ok, witness)
    return report


def _random_element(rng, degree: int) -> PBWElement:
    out = PBWElement.zero()
    for _ in range(2):
        word = tuple(sorted(rng.randrange(4)
                            for _ in range(rng.randint(0, degree))))
        key = (word.count(_X), word.count(_Y), word.count(_Z),
               word.count(_T), 0)
        out = out + PBWElement.monomial(
            key, Scalar.from_int(rng.randint(1, 5), "h"))
    return out


def verify_dhat_homomorphism(rng=None,
                             samples: int = 20) -> VerificationReport:
    """The derivative matrix is unital and multiplicative.

    Covers the unit, all sixteen generator pairs, the sampled random
    degree-bounded pairs and the three cyclic bracket images.
    """
    report = VerificationReport("u2h", {"layer": "calculus",
                                        "samples": samples})
    report.add("unit", anchor("u2h-multiplicative"),
               dhat_matrix(PBWElement.one()) == _matrix(
                   {(i, i): PBWElement.one() for i in range(4)}))
    named = []
    for na in GENERATOR_ORDER:
        for nb in GENERATOR_ORDER:
            named.append((f"pair-{na}{nb}", PBWElement.generator(na),
                          PBWElement.generator(nb)))
    if samples:
        if rng is None:
            raise ValueError("random pairs need an rng")
        for i in range(samples):
            named.append((f"random-{i}", _random_element(rng, 3),
                          _random_element(rng, 3)))
    for label, a, b in named:
        residual = dhat_matrix(a * b) - dhat_matrix(a) * dhat_matrix(b)
        ok, witness = residual.first_nonzero(lambda v: v)
        report.add(label, anchor("u2h-multiplicative"), ok, witness)
    images = {name: dhat_matrix(PBWElement.generator(name))
              for name in ("x", "y", "z")}
    for left, right, res in (("x", "y", "z"), ("y", "z", "x"),
                             ("z", "x", "y")):
        ok = images[left] * images[right] \
            - images[right] * images[left] == images[res].scale(H)
        report.add(f"bracket-{left}{right}",
                   anchor("u2h-bracket-representation"), ok, None)
    return report


def verify_radius() -> VerificationReport:
    """Closed-form matrix, printed actions, and the square identity."""
    report = VerificationReport("u2h", {"layer": "radius"})
    r = PBWElement.radius()
    got = dhat_matrix(r)
    ok = got == expected_radius_matrix()
    report.add("radius-matrix", anchor("u2h-radius-actions"), ok,
               None if ok else "matrix mismatch")
    inv = PBWElement.radius(-1)
    plain_t = apply_derivative(DT, r) - r.scale(COUNIT_SHIFT)
    ok = plain_t == inv.scale(-HALF_H) \
        and apply_derivative(DX, r) == PBWElement.generator("x") * inv \
        and apply_derivative(DY, r) == PBWElement.generator("y") * inv \
        and apply_derivative(DZ, r) == PBWElement.generator("z") * inv
    report.add("radius-actions", anchor("u2h-radius-actions"), ok, None)
    square = dhat_matrix(r) * dhat_matrix(r) - dhat_matrix(r * r)
    ok = all(radius_cleared_is_zero(v) for v in square.entries.values())
    report.add("radius-square", anchor("u2h-radius-square"), ok, None)
    return report


def classical_limit_report() -> VerificationReport:
    """Actions reduce to flat partial derivatives when the shift vanishes.

    First-order actions are shift-free Kronecker values; second-order
    corrections and the radius shift are explicit multiples of h.
    """
    report = VerificationReport("u2h", {"layer": "classical"})
    ok = True
    witness = None
    for i, sym in enumerate((DX, DY, DZ)):
        for j, name in enumerate(GENERATOR_ORDER):
            got = apply_derivative(sym, PBWElement.generator(name))
            want = PBWElement.constant(H_ONE if i == j else H_ZERO)
            if got != want:
                ok = False
                witness = f"{sym} on {name}: {got!r}"
    for name in GENERATOR_ORDER:
        g = PBWElement.generator(name)
        got = apply_derivative(DT, g) - g.scale(COUNIT_SHIFT)
        want = PBWElement.constant(H_ONE if name == "t" else H_ZERO)
        if got != want:
            ok = False
            witness = f"dt on {name}: {got!r}"
    report.add("first-order-actions", anchor("u2h-classical-limit"),
               ok, witness)
    x = PBWElement.generator("x")
    square = apply_derivative(DX, x * x)
    cross = apply_derivative(
        DX, PBWElement.generator("y") * PBWElement.generator("z"))
    ok = square == x.scale(Scalar.from_int(2, "h")) \
        and cross == PBWElement.constant(HALF_H) \
        and all(c.evaluate(0) == 0 for c in cross.terms.values())
    report.add("second-order-corrections", anchor("u2h-classical-limit"),
               ok, None)
    drift = apply_derivative(DT, PBWElement.radius()) \
        - PBWElement.radius().scale(COUNIT_SHIFT)
    coeff = drift.terms.get((0, 0, 0, 0, -1), H_ZERO)
    ok = list(drift.terms) == [(0, 0, 0, 0, -1)] \
        and coeff == -HALF_H and coeff.evaluate(0) == 0
    report.add("radius-limit", anchor("u2h-classical-limit"), ok, None)
    return report
