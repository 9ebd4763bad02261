"""Shifted partial derivatives on a compact rank-2 enveloping algebra.

Two layers.  The general layer builds, over any Hecke braiding, the
derivative-side double on the shift-deformed coordinate algebra and
checks at construction that it is the generator shift of the plain
derivative double; for involutive braidings it also checks the rule for
derivatives shifted by h^-1, whose Leibniz structure is a matrix
coproduct.

The concrete layer works over Q(h) through the certified engine of the
other suites.  The compact algebra U(u_2)_h is a filtered
QuadraticPresentation on the letters x < y < z < t, with brackets
[x, y] = h z (cyclic in x, y, z) and t central; its radius extension
adds a central letter r with r^2 = x^2 + y^2 + z^2 - h^2/4.  The
diamond lemma certifies both on their first ensure(3), so their normal
forms are unique.  The four derivative symbols and either algebra form
a QuantumDouble: a symbol pushes through a letter by the sixteen-entry
table _PUSH and caps with its counit.  Arranged into a 4x4 matrix with
prefactor h/2, the derivatives give an algebra homomorphism into
matrices over the algebra.  The derivatives of r hold r^-1, which the
extension lacks, so the radius identities are checked multiplied by r,
which is central and not a zero divisor; r·∂(r) has a closed form.
The u2h suite builds the compact double and the radius double once
each and hands them to the verifiers that act in them; they die with the
suite's run.
"""

from __future__ import annotations

import itertools

from .anchors import anchor
from .braidings import Braiding, flip, standard_hecke
from .doubles import (DoubleDefinition, DoubleError, PermutationRule,
                      QuantumDouble, derivative_relation, make_double,
                      matrix_copy)
from .ncengine import (Gen, MatrixOverAlgebra, NCElement,
                       QuadraticPresentation, free_presentation,
                       matrix_generators, re_relation_matrix)
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
    shift-deformed ones.  Both mixed rules come from derivative_relation,
    the relation the derivative doubles are extracted from.  Returns
    (mixed residual, quadratic residual).
    """
    r = braiding.op
    dim = braiding.dim
    v = braiding.nu
    d1 = MatrixOverAlgebra.generator_matrix("d", dim, 2, 1)
    n1 = MatrixOverAlgebra.generator_matrix("n", dim, 2, 1)
    ident = MatrixOverAlgebra.identity(dim, 2)
    m_sub = ident.scale(h) - n1.scale(v)
    d_sub = d1.scale(-v.inverse())

    plain_lhs, plain_rhs = derivative_relation(braiding, d_sub, m_sub)
    lhs, rhs = derivative_relation(braiding, d1, n1, h)
    mixed_residual = plain_lhs - plain_rhs - (lhs - rhs)
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
    if not braiding.nu.is_zero():
        mixed_residual, quad_residual = \
            _shift_substitution_residual(braiding, h)
        if not (mixed_residual.is_zero() and quad_residual.is_zero()):
            raise DoubleError("shift substitution does not reproduce "
                              "the deformed relations")
    return double


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
    the Kronecker action over the plain flip, the shape of the rule of
    the derivatives shifted by h^-1 on the diagonal, which exist over
    involutive braidings only (one swap term plus at most one h-multiple
    correction per generator pair), the coproduct counit axiom, and the
    coproduct route against the permutation route on generator pairs.
    """
    report = VerificationReport("u2h")
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
    witness = None
    for gd, gn in itertools.product(matrix_generators(classical.a_tag, 2),
                                    matrix_generators(classical.b_tag, 2)):
        got = classical.act(NCElement.generator(gd), NCElement.generator(gn))
        want = Scalar.from_int(
            1 if gd.row == gn.col and gd.col == gn.row else 0, "h")
        if got != NCElement.constant(want):
            witness = f"{gd} on {gn}: {got!r}"
            break
    report.add("classical-generator-action", anchor("u2h-classical-limit"),
               witness is None, witness)
    unit_double = make_double(p, "derivative_shifted_unit", h=hp)
    ok = len(unit_double.rule.table) == 16
    witness = None
    for (gd, gn), image in unit_double.rule.table.items():
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

GENERATOR_ORDER = ("x", "y", "z", "t")

# One tag for every letter, as a double's B side needs; under word_sortkey
# the column orders them x < y < z < t < r, so the normal words are the
# sorted monomials.
_X, _Y, _Z, _T, _R = (Gen("u", 1, k) for k in range(1, 6))
_LETTERS = dict(zip(GENERATOR_ORDER + ("r",), (_X, _Y, _Z, _T, _R)))


def generator(name: str) -> NCElement:
    """The letter x, y, z, t or (in the radius extension) r."""
    return NCElement.generator(_LETTERS[name])


def _bracket_relations() -> list:
    x, y, z, t = (generator(name) for name in GENERATOR_ORDER)
    return [y * x - x * y + z.scale(H), z * x - x * z - y.scale(H),
            z * y - y * z + x.scale(H)] + [t * g - g * t for g in (x, y, z)]


def compact_presentation() -> QuadraticPresentation:
    """[x, y] = h z cyclically in x, y, z, and t central, over Q(h).

    A filtered presentation on x < y < z < t; its first ensure(3)
    certifies it, so its normal words are the monomials x^a y^b z^c t^d.
    """
    return QuadraticPresentation([_X, _Y, _Z, _T], _bracket_relations(),
                                 name="compact(h)")


def radius_presentation() -> QuadraticPresentation:
    """The compact algebra with a central r, r^2 = x^2 + y^2 + z^2 - h^2/4.

    Its normal words are the monomials of the compact algebra, times 1
    or r.
    """
    x, y, z, t, r = (generator(name) for name in _LETTERS)
    casimir = x * x + y * y + z * z + NCElement.constant(RADIUS_CONST)
    return QuadraticPresentation(
        list(_LETTERS.values()),
        _bracket_relations() + [r * g - g * r for g in (x, y, z, t)]
        + [r * r - casimir], name="radius(h)")


# ---------------------------------------------------------------------------
# Derivative symbols and the pushing table

DT, DX, DY, DZ = "dt", "dx", "dy", "dz"
DERIVATIVE_SYMBOLS = (DT, DX, DY, DZ)
_SYMBOLS = {sym: Gen("d", 1, k)
            for k, sym in enumerate(DERIVATIVE_SYMBOLS, start=1)}

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

# r * (symbol acting on r): the closed forms, with no inverse of r
_RADIUS_ACTION = {
    DT: NCElement({(_R, _R): COUNIT_SHIFT, (): -HALF_H}),
    DX: generator("x"),
    DY: generator("y"),
    DZ: generator("z"),
}


def derivative_double(b_pres: QuadraticPresentation) -> QuantumDouble:
    """The four symbols acting on the compact algebra or its extension.

    The A side is free on the symbols, the rule table is _PUSH and the
    counit COUNIT; the double reads only the parameter h of its braiding.
    Words with r have no rule: apply_derivative keeps them out.
    """
    table = {}
    for (sym, g), (target, sign) in _PUSH.items():
        d = _SYMBOLS[sym]
        table[(d, g)] = NCElement({(g, d): H_ONE,
                                   (_SYMBOLS[target],): _half_h(sign)})
    braiding = flip(2, "h")
    definition = DoubleDefinition(
        "compact_derivative", braiding.dim,
        free_presentation(list(_SYMBOLS.values()), name="free(d)"), b_pres,
        PermutationRule("d", "u", table),
        {_SYMBOLS[sym]: c for sym, c in COUNIT.items()})
    return QuantumDouble(braiding, definition)


def apply_derivative(double: QuantumDouble, sym: str,
                     a: NCElement) -> NCElement:
    """The symbol acting on a, in B normal form; see _derivatives."""
    if sym not in COUNIT:
        raise ValueError(f"unknown derivative symbol {sym!r}")
    return _derivatives(double, [a])[0][sym]


def _derivatives(double: QuantumDouble, targets: list) -> list:
    """For each target, {symbol: the symbol acting on it, in B normal form}.

    The action pushes a symbol through each word by the sixteen-entry
    table and caps it with its counit; a target stands for an algebra
    element only if it is a normal form.  One act_each call loads every
    target once.  A word with r raises UnsupportedElementError: the
    derivatives of r leave the algebra.
    """
    for a in targets:
        for w in a.terms:
            if _R in w:
                raise UnsupportedElementError(
                    f"derivative undefined on the radius word "
                    f"{NCElement.word(w)!r}")
    nf = double.b_pres.normal_form
    out = [{} for _ in targets]
    acted = double.act_each([NCElement.generator(_SYMBOLS[sym])
                             for sym in DERIVATIVE_SYMBOLS], targets)
    for sym, values in zip(DERIVATIVE_SYMBOLS, acted):
        for derivatives, value in zip(out, values):
            derivatives[sym] = nf(value)
    return out


def cleared_derivative(double: QuantumDouble, sym: str,
                       a: NCElement) -> NCElement:
    """r times the symbol acting on a, over the radius presentation.

    a is a polynomial plus a multiple of the bare letter r, whose value
    r·∂(r) is the closed form of _RADIUS_ACTION; any other word with r
    raises UnsupportedElementError.  Since r is central and not a zero
    divisor, identities multiplied by r prove the identities themselves.
    """
    c = a.terms.get((_R,))
    rest = NCElement({w: v for w, v in a.terms.items() if w != (_R,)})
    out = generator("r") * apply_derivative(double, sym, rest)
    if c is not None:
        out = out + _RADIUS_ACTION[sym].scale(c)
    return double.b_pres.normal_form(out)


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


def _half_h(sign: int) -> Scalar:
    return HALF_H if sign > 0 else -HALF_H


def _dhat(values: dict) -> MatrixOverAlgebra:
    """The sign pattern over {symbol: value}, with prefactor h/2."""
    half = {sym: v.scale(HALF_H) for sym, v in values.items()}
    return _matrix({(i, j): half[sym] if sign > 0 else -half[sym]
                    for i, row in enumerate(_DHAT_PATTERN)
                    for j, (sign, sym) in enumerate(row)})


def dhat_matrix(double: QuantumDouble, a: NCElement) -> MatrixOverAlgebra:
    """The derivative matrix of a normal form a: the sign pattern of its
    derivatives."""
    return _dhat(_derivatives(double, [a])[0])


def cleared_dhat_matrix(double: QuantumDouble,
                        a: NCElement) -> MatrixOverAlgebra:
    """r times the derivative matrix of a, by cleared_derivative."""
    return _dhat({sym: cleared_derivative(double, sym, a)
                  for sym in DERIVATIVE_SYMBOLS})


def expected_radius_matrix() -> MatrixOverAlgebra:
    """r times the closed form of the derivative matrix on r.

    The diagonal is r^2 - h^2/4, and the rest is (h/2)·x, y, z with the
    signs of _RADIUS_PATTERN.
    """
    r = generator("r")
    diag = r * r + NCElement.constant(RADIUS_CONST)
    entries = {(i, i): diag for i in range(4)}
    for i, row in enumerate(_RADIUS_PATTERN):
        for j, cell in enumerate(row):
            if cell is not None:
                name, sign = cell
                entries[(i, j)] = generator(name).scale(_half_h(sign))
    return _matrix(entries)


# ---------------------------------------------------------------------------
# Reports

def verify_derivative_commutativity(double: QuantumDouble,
                                    degree: int = 3) -> VerificationReport:
    """All symbol pairs commute on every free word of bounded degree.

    double is the derivative double of the compact algebra.  Acting on
    words that are not normal forms checks that the symbols respect the
    relations too: a wrong sign in _PUSH passes on the 35 normal words of
    degree <= 3, but not on all 85 free words.
    """
    report = VerificationReport("u2h")
    words = [NCElement.word(w) for k in range(degree + 1)
             for w in itertools.product(double.b_pres.generators, repeat=k)]
    firsts = _derivatives(double, words)
    # seconds[(i, s)][s2]: s2 acting on the s-derivative of words[i]
    seconds = dict(zip(
        itertools.product(range(len(words)), DERIVATIVE_SYMBOLS),
        _derivatives(double, [f[sym] for f in firsts
                              for sym in DERIVATIVE_SYMBOLS])))
    ok = True
    witness = None
    for (i, a), (s1, s2) in itertools.product(
            enumerate(words),
            itertools.combinations(DERIVATIVE_SYMBOLS, 2)):
        if seconds[(i, s2)][s1] != seconds[(i, s1)][s2]:
            ok = False
            witness = f"{s1},{s2} on {a!r}"
            break
    report.add("commutativity", anchor("u2h-commutativity"), ok, witness)
    return report


def _random_element(rng, degree: int) -> NCElement:
    letters = (_X, _Y, _Z, _T)
    out = NCElement.zero()
    for _ in range(2):
        word = tuple(sorted(rng.randrange(4)
                            for _ in range(rng.randint(0, degree))))
        out = out + NCElement.word(tuple(letters[i] for i in word),
                                   Scalar.from_int(rng.randint(1, 5), "h"))
    return out


def verify_dhat_homomorphism(double: QuantumDouble, rng=None,
                             samples: int = 20) -> VerificationReport:
    """The derivative matrix is unital, well defined and multiplicative.

    double is the derivative double of the compact algebra.  Covers the
    unit, all sixteen generator pairs, the sampled random degree-bounded
    pairs and the three cyclic bracket images.  The matrix of the normal
    form of a·b must equal dhat(a)·dhat(b), and for a generator pair so
    must the matrix of the word a·b itself.
    """
    report = VerificationReport("u2h")
    nf = double.b_pres.normal_form
    one = NCElement.constant(H_ONE)
    report.add("unit", anchor("u2h-multiplicative"),
               dhat_matrix(double, one) == _matrix(
                   {(i, i): one for i in range(4)}))
    named = [(f"pair-{na}{nb}", generator(na), generator(nb))
             for na in GENERATOR_ORDER for nb in GENERATOR_ORDER]
    # The word a·b of a generator pair is not normal when a > b, so its
    # matrix shows the rule entries that normal words never reach (t
    # before x, say): it must equal the matrix of the normal form.
    word_dhats = dict(zip((label for label, _, _ in named), map(
        _dhat, _derivatives(double, [a * b for _, a, b in named]))))
    if samples:
        if rng is None:
            raise ValueError("random pairs need an rng")
        for i in range(samples):
            named.append((f"random-{i}", _random_element(rng, 3),
                          _random_element(rng, 3)))
    # a and b are normal words: the matrices of the normal form of a·b,
    # of a and of b, in one batch
    dhats = iter([_dhat(d) for d in _derivatives(double, [
        e for _, a, b in named for e in (nf(a * b), a, b)])])
    for (label, _, _), product, left, right in zip(named, dhats, dhats,
                                                   dhats):
        ok, witness = True, None
        if label in word_dhats:
            ok, witness = (word_dhats[label] - product).first_nonzero(
                lambda v: v)
        if ok:
            ok, witness = (product - left * right).first_nonzero(nf)
        report.add(label, anchor("u2h-multiplicative"), ok, witness)
    images = {name: dhat_matrix(double, generator(name))
              for name in ("x", "y", "z")}
    for left, right, res in (("x", "y", "z"), ("y", "z", "x"),
                             ("z", "x", "y")):
        residual = images[left] * images[right] \
            - images[right] * images[left] - images[res].scale(H)
        ok, witness = residual.first_nonzero(nf)
        report.add(f"bracket-{left}{right}",
                   anchor("u2h-bracket-representation"), ok, witness)
    return report


def verify_radius(double: QuantumDouble) -> VerificationReport:
    """Closed-form matrix, printed actions, and the square identity.

    double is the derivative double of the radius extension.  Each
    identity is checked multiplied by r, with no inverse of r.
    """
    report = VerificationReport("u2h")
    nf = double.b_pres.normal_form
    r = generator("r")
    cleared = cleared_dhat_matrix(double, r)
    ok, witness = (cleared - expected_radius_matrix()).first_nonzero(nf)
    report.add("radius-matrix", anchor("u2h-radius-actions"), ok, witness)
    ok = nf(cleared_derivative(double, DT, r) - (r * r).scale(COUNIT_SHIFT)) \
        == NCElement.constant(-HALF_H) and all(
            cleared_derivative(double, sym, r) == generator(name)
            for sym, name in ((DX, "x"), (DY, "y"), (DZ, "z")))
    report.add("radius-actions", anchor("u2h-radius-actions"), ok, None)
    square = cleared * cleared - dhat_matrix(double, nf(r * r)).map_entries(
        lambda v: r * r * v)
    ok, witness = square.first_nonzero(nf)
    report.add("radius-square", anchor("u2h-radius-square"), ok, witness)
    return report


def classical_limit_report(double: QuantumDouble) -> VerificationReport:
    """Actions reduce to flat partial derivatives when the shift vanishes.

    double is the derivative double of the radius extension.  First-order
    actions are shift-free Kronecker values; second-order corrections and
    the radius shift are explicit multiples of h.
    """
    report = VerificationReport("u2h")
    firsts = dict(zip(GENERATOR_ORDER, _derivatives(
        double, [generator(name) for name in GENERATOR_ORDER])))
    cases = [(f"{sym} on {name}", firsts[name][sym], i == j)
             for i, sym in enumerate((DX, DY, DZ))
             for j, name in enumerate(GENERATOR_ORDER)]
    cases += [(f"dt on {name}",
               firsts[name][DT] - generator(name).scale(COUNIT_SHIFT),
               name == "t") for name in GENERATOR_ORDER]
    witness = next((f"{label}: {got!r}" for label, got, one in cases
                    if got != NCElement.constant(H_ONE if one else H_ZERO)),
                   None)
    report.add("first-order-actions", anchor("u2h-classical-limit"),
               witness is None, witness)
    x = generator("x")
    square = apply_derivative(double, DX, x * x)
    cross = apply_derivative(double, DX, generator("y") * generator("z"))
    ok = square == x.scale(Scalar.from_int(2, "h")) \
        and cross == NCElement.constant(HALF_H) \
        and all(c.evaluate(0) == 0 for c in cross.terms.values())
    report.add("second-order-corrections", anchor("u2h-classical-limit"),
               ok, None)
    r = generator("r")
    drift = double.b_pres.normal_form(
        cleared_derivative(double, DT, r) - (r * r).scale(COUNIT_SHIFT))
    coeff = drift.terms.get((), H_ZERO)
    ok = list(drift.terms) == [()] \
        and coeff == -HALF_H and coeff.evaluate(0) == 0
    report.add("radius-limit", anchor("u2h-classical-limit"), ok, None)
    return report
