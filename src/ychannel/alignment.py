"""Construction of the signal-alignment relaying scheme.

The relay applies a wide compression matrix whose rows are drawn from the
left null spaces of stacked channel subsets, so that after compression each
user pair's signals can be forced into a common column: the alignment
equation ``P H_i V_ij == P H_j V_ji``.  The relay then only has to decode
the stacked pairwise sums, one network-coded stream per compressed
dimension.

Construction order, for a branch index ``beta``:

1. ``allocate_streams`` fixes the symmetric per-pair stream count x and the
   q compression rows of each of the ``C(K, beta)`` antenna subsets.
2. ``build_compression_matrix`` takes q left-null rows of each subset's
   stacked channel.  The subsets go in lexicographic order, so (K, beta, q)
   fix the subset each row annihilates, its provenance; no scheme stores it.
3. ``build_precoders`` pulls each pair's joint precoder from the null space
   of the compressed pair channel.
4. ``assemble_schemes``, which runs steps 2 and 3, stacks the aligned
   basis and certifies residual and conditioning.

Steps 2 and 3 share one null-space routine and one lost-rank rule.  The
routine completes each wide matrix to a square one with a fixed random
block, writes all of a step's blocks into one buffer, and takes one batched
LU solve with partial pivoting and one batched QR; it needs no SVD.  Step 3
first drops the rows that the provenance says annihilate both channels of
the pair, and checks that they do.  Its rank check's singular values give
the precoders' spectral norms, which scale the alignment residual in step 4.
Channel norms come from Gram eigenvalues; rank checks and condition numbers
keep SVDs, as a Gram matrix squares their small singular values away.

Steps 2 and 3 work on a leading member axis.  ``assemble_schemes`` runs
steps 2 to 4 once for several channel sets, and returns every member's
scheme or raises; the simulation builds each seed's uplink scheme and its
downlink dual that way.  ``assemble_scheme`` is a batch of one.

``verify_alignment_conditions`` re-checks the two structural conditions of
the scheme (row membership counts and precoder null-space residuals)
independently of how the scheme was built.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from sys import float_info

import numpy as np

from .bounds import check_beta, corner_abscissa
from .channel import ChannelSet, _spectral_norms
from .config import SystemConfig, check_integer
from .errors import (
    AlignmentInfeasibleError,
    AlignmentVerificationError,
    ConfigurationError,
    DecodabilityError,
    DegenerateChannelError,
    DegenerateSplitError,
    DimensionError,
    InfeasibleConfigurationError,
    NeedsExtensionError,
    YChannelError,
)

__all__ = [
    "StreamAllocation",
    "AlignmentScheme",
    "PairCheck",
    "AlignmentReport",
    "allocate_streams",
    "assemble_scheme",
    "assemble_schemes",
    "verify_alignment_conditions",
    "scheme_to_dict",
    "scheme_from_dict",
    "save_scheme",
    "load_scheme",
]

# A singular value counts as zero below this fraction of the largest one.
NULL_SPACE_RTOL = 1e-10
# Residual ceiling for rows placed in a left null space, relative to the
# largest spectral norm among the stacked channels.
ROW_RESIDUAL_TOL = 1e-9
# Normalized alignment residual ceiling for an assembled scheme.
ALIGNMENT_TOL = 1e-8
# Condition-number ceiling for the aligned basis.
BASIS_COND_MAX = 1e8
# Relative residual below which the verifier counts a row as annihilating
# a pair, and above which a precoder fails the null-space condition.
VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class StreamAllocation:
    """The stream count ``per_pair`` of every ordered user pair and the
    ``per_subset`` compression rows of every antenna subset."""

    cfg: SystemConfig
    per_pair: int
    per_subset: int

    @property
    def d_total(self) -> int:
        return self.cfg.K * (self.cfg.K - 1) * self.per_pair

    @property
    def rows(self) -> int:
        """Row count of the compression matrix, d_total / 2."""
        return self.d_total // 2


def check_corner_beta(K: int, beta: int) -> int:
    """``beta`` as an int, or a ``ConfigurationError`` unless K has a constructible corner
    ``beta`` in ``betas(K)``."""
    if K < 4:  # no beta in [2, K - 2]
        raise ConfigurationError(f"K={K} has no constructible corner with beta >= 2, got {beta}")
    return check_beta(K, beta)


def allocate_streams(cfg: SystemConfig, beta: int) -> StreamAllocation:
    """Symmetric per-pair stream count and rows per subset achieving the corner for ``beta``.

    The closed form is ``x = 4M / (2 + K(K-1) - beta(beta-1))``, and the
    rows = K(K-1)x/2 go out ``q = rows / C(K, beta)`` to each subset.  A
    fractional x or q means the configuration needs a symbol extension; a
    ratio below the corner abscissa alpha cannot host the allocation at all.
    Both feasibility conditions of the construction then hold identically:
    q = (alpha - beta)M <= N - beta*M fits each subset's left null space, and
    the q*C(K-2, beta-2) = x*beta(beta-1)/2 rows shared by a pair are
    exactly rows - 2M + x, which leaves x precoder dimensions.
    """
    K = cfg.K
    beta = check_corner_beta(K, beta)
    alpha = corner_abscissa(K, beta)
    if cfg.ratio < alpha:
        n_min = -(-alpha.numerator * cfg.M // alpha.denominator)  # ceil(alpha * M)
        raise InfeasibleConfigurationError(
            f"ratio N/M={cfg.ratio} is below the beta={beta} corner {alpha}: "
            f"needs N >= {n_min} at M={cfg.M}",
            inequality="N/M >= corner abscissa",
        )
    x = Fraction(4 * cfg.M, 2 + K * (K - 1) - beta * (beta - 1))
    if x.denominator != 1:
        raise NeedsExtensionError(
            f"per-pair stream count {x} is fractional; needs a "
            f"{x.denominator}-symbol extension",
            factor=x.denominator,
        )
    rows, subsets = K * (K - 1) * int(x) // 2, comb(K, beta)
    q, rem = divmod(rows, subsets)
    if rem:
        need = subsets // gcd(rows, subsets)
        raise NeedsExtensionError(
            f"{rows} compression rows do not divide over {subsets} subsets; "
            f"needs a {need}-symbol extension",
            factor=need,
        )
    return StreamAllocation(cfg=cfg, per_pair=int(x), per_subset=q)


@functools.lru_cache(maxsize=64)
def _complement(rows: int, n: int) -> np.ndarray:
    """Fixed real Gaussian (n - rows) x n block, seeded by its shape."""
    block = np.random.default_rng([rows, n]).standard_normal((n - rows, n))
    block.setflags(write=False)
    return block


# This thread's reused work arrays, one flat buffer per name; see ``assemble_schemes``.
_scratch = threading.local()


def _buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialized C-ordered complex array of ``shape``; axis 0 is the member axis.

    For two or more members it is a view of this thread's buffer ``name``,
    which grows on demand and which the next batch's call for ``name``
    overwrites.  A single scheme gets a fresh array.
    """
    if shape[0] < 2:
        return np.empty(shape, complex)
    size = int(np.prod(shape))
    flat = getattr(_scratch, name, None)
    if flat is None or flat.size < size:
        flat = np.empty(size, complex)
        setattr(_scratch, name, flat)
    return flat[:size].reshape(shape)


def _square_blocks(members: int, count: int, rows: int, n: int) -> np.ndarray:
    """(members * count, n, n) blocks whose last n - rows rows hold the fixed complement.

    The caller writes its wide rows x n matrices, ``count`` per member,
    into the first ``rows`` rows of the blocks and hands them to
    ``_null_space``.  Each block is stored column major, the layout LAPACK
    factors, so the transpose of a wide matrix is a row-major view.
    """
    square = _buffer("blocks", (members, count, n, n)).reshape(-1, n, n).transpose(0, 2, 1)
    square[:, rows:] = _complement(rows, n)
    return square


def _null_space(square: np.ndarray, rows: int) -> np.ndarray:
    """Orthonormal null-space bases of the wide blocks ``square[:, :rows]``, (B, n, n - rows).

    For an R x n matrix ``a`` of full row rank, the last n - R columns of
    ``inv([a; E])`` span its null space, E being the fixed complement of
    that shape (the variable-reduction basis of Nocedal & Wright).  One
    batched solve takes an LU factorization with partial pivoting over all
    n rows of every block, and one batched thin QR orthonormalizes the
    results.  A rank-deficient ``a`` makes the solve singular, or leaves
    residuals the callers' gates reject.
    """
    count, n, _ = square.shape
    # [0; I] per block; a 2-D right-hand side would be a vector stack before numpy 2
    rhs = np.broadcast_to(np.eye(n, n - rows, -rows), (count, n, n - rows))
    try:
        z = np.linalg.solve(square, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError(f"null-space solve failed ({exc}); reseed") from exc
    return np.linalg.qr(z)[0]


def _rank_lost(sv: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """True where the smallest singular value counts as zero, per spectrum of a stack."""
    return sv[..., -1] <= NULL_SPACE_RTOL * np.maximum(sv[..., 0], floor)


@functools.lru_cache(maxsize=64)
def message_order(K: int) -> tuple:
    """Every ordered pair (i, j) of K users in message order, (i, j) then (j, i) for each
    pair i < j, and where each message sits in a user-by-partner stack: at its sender,
    (i, j - (j > i)), as in ``AlignmentScheme.precoders``, and at its receiver,
    (j, i - (i > j)), as in ``BcScheme.filters``.  The index arrays are read-only.  The
    pairs are ``messages[0::2]``, with members ``sent[0][0::2]`` and ``sent[0][1::2]``."""
    messages = tuple(m for i, j in itertools.combinations(range(K), 2) for m in ((i, j), (j, i)))
    src, dst = np.array(messages).T
    sent, received = (src, dst - (dst > src)), (dst, src - (src > dst))
    for a in sent + received:
        a.setflags(write=False)
    return messages, sent, received


@functools.lru_cache(maxsize=64)
def _subsets(K: int, beta: int) -> np.ndarray:
    """The C(K, beta) subsets in lexicographic order, a read-only (subsets, beta) user array."""
    users = np.array(list(itertools.combinations(range(K), beta)))
    users.setflags(write=False)
    return users


@functools.lru_cache(maxsize=64)
def _shared_rows(K: int, beta: int, q: int) -> np.ndarray:
    """Read-only (pairs, rows) mask: the row's subset holds both users of the pair."""
    users = message_order(K)[1][0]
    member = (_subsets(K, beta)[:, :, None] == np.arange(K)).any(axis=1).repeat(q, axis=0)
    shared = (member[:, users[0::2]] & member[:, users[1::2]]).T
    shared.setflags(write=False)
    return shared


def build_compression_matrix(
    H: np.ndarray, norms: np.ndarray, alloc: StreamAllocation, beta: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract q left-null rows per antenna subset, lexicographic order, for B members.

    H is the (B, K, N, M) uplink stack and norms its (B, K) spectral norms.
    A row annihilating the N x beta*M stack H_S is a null vector of H_S^T.
    The row-residual gate scales with max over g in S of ||H_g||_2, a lower
    bound on ||H_S||_2.  The H_S^T are written straight into the null-space
    blocks, and the residuals read H_S back from them.

    Returns the read-only (B, rows, N) matrices and (B, rows) row
    residuals, and each member's ||P||_2, the top singular value of the rank
    check.  A failing check names the first failing member's subset.
    """
    B, K, N, M = H.shape
    q = alloc.per_subset
    users = _subsets(K, beta)
    S, width = len(users), beta * M  # H_S is N x width
    # block (b, s) holds H_S^T of member b's s-th subset S, one M-row band per user of S
    square = _square_blocks(B, S, width, N)
    bands = square[:, :width].reshape(B, S, beta, M, N)
    for g in range(K):
        bands[:, users == g] = H[:, g, None].transpose(0, 1, 3, 2)
    null = _null_space(square, width)
    picked = np.ascontiguousarray(null[:, :, :q].transpose(0, 2, 1))  # B S x q x N rows
    # H_S read back as a row-major view: the same BLAS path, and bits, as a copied stack
    residuals = np.linalg.norm(picked @ square[:, :width].transpose(0, 2, 1), axis=2)
    residuals = residuals.reshape(B, S, q)
    scales = norms[:, users].max(axis=2)
    failed = ~(residuals <= ROW_RESIDUAL_TOL * scales[..., None]).all(axis=2)
    if failed.any():
        b, k = np.unravel_index(np.argmax(failed), failed.shape)
        raise DegenerateChannelError(
            f"subset {tuple(users[k].tolist())}: null row residual {residuals[b, k].max():.3e} "
            f"above tolerance; reseed"
        )
    matrices, residuals = picked.reshape(B, S * q, N), residuals.reshape(B, S * q)
    spectra = np.linalg.svd(matrices, compute_uv=False)
    if _rank_lost(spectra).any():
        raise DegenerateChannelError(
            "compression matrix lost row rank (probability-zero event); reseed"
        )
    for a in (matrices, residuals):
        a.setflags(write=False)  # before the per-member views are taken
    return matrices, residuals, spectra[:, 0]


def _gather(compressed: np.ndarray, users: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``compressed[:, users, rows]`` of a (B, K, rows, M) stack, the indices broadcast together.

    For B >= 2 the result lives in this thread's gather buffer, which the
    next such gather overwrites.
    """
    B, K, R, M = compressed.shape
    index = users * R + rows
    out = _buffer("gather", (B, *index.shape, M))
    flat = compressed.reshape(B, K * R, M)
    np.take(flat, index.reshape(-1), axis=1, out=out.reshape(B, -1, M), mode="clip")
    return out


def build_precoders(
    H: np.ndarray,
    norms: np.ndarray,
    P: np.ndarray,
    alloc: StreamAllocation,
    beta: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair precoders from the compressed pair channel's null space, for B members.

    P is the (B, rows, N) stack of compression matrices, q rows per subset
    of ``_subsets`` in its order.  The rows whose provenance subset holds
    both i and j annihilate H_i and H_j.  They are checked against
    ``[P H_i, -P H_j]`` and dropped; at the corner the 2M - x rows left have
    a null space of dimension exactly x.  Each stacked null vector splits
    into the two directions' precoder columns; both halves are scaled
    jointly so the larger one has unit norm, keeping the alignment identity
    intact while bounding per-stream transmit power.

    Returns the read-only (B, K, K-1, M, x) user-by-partner precoder stack;
    ||V_ij||_2 (B, pairs), the top singular values of the rank check, so
    that certification scales its residual without a second SVD; and the
    compressed channels P H_g (B, K, rows, M), which certification reuses.
    A failing check names the first failing member's pair or direction.
    """
    B, K, N, M = H.shape
    need = alloc.per_pair
    kept = 2 * M - need  # rows of the compressed pair channel left after the shared ones
    messages, (users, slots), _ = message_order(K)
    pairs, first, second = messages[0::2], users[0::2], users[1::2]
    compressed = P[:, None] @ H  # B x K x rows x M
    shared = _shared_rows(K, beta, alloc.per_subset)
    k, r = np.nonzero(shared)
    scale = VERIFY_TOL * np.maximum(norms[:, first], norms[:, second])
    row_norms = np.linalg.norm(P, axis=2)
    # row r[n] of the compressed pair channel [P H_i, -P H_j] of pair k[n]
    rows = np.concatenate([compressed[:, first[k], r], -compressed[:, second[k], r]], axis=2)
    annihilated = np.linalg.norm(rows, axis=2) <= scale[:, k] * row_norms[:, r]
    if not annihilated.all():  # k ascends, so this is the first failing member's first pair
        i, j = pairs[k[int(np.argmax(~annihilated)) % len(k)]]
        raise AlignmentInfeasibleError(
            f"pair ({i},{j}): the rows from subsets holding both users must "
            f"annihilate its channels and leave {kept} rows for "
            f"{need} streams"
        )
    square = _square_blocks(B, len(pairs), kept, 2 * M)
    wide = square[:, :kept].reshape(B, len(pairs), kept, 2 * M)
    keep_k, keep_r = (a.reshape(len(pairs), kept) for a in np.nonzero(~shared))
    wide[..., :M] = _gather(compressed, first[keep_k], keep_r)
    np.negative(_gather(compressed, second[keep_k], keep_r), out=wide[..., M:])
    null = _null_space(square, kept)  # B pairs x 2M x need
    top, bottom = null[:, :M], null[:, M:]
    scales = np.maximum(np.linalg.norm(top, axis=1), np.linalg.norm(bottom, axis=1))
    vanished = ~(scales > NULL_SPACE_RTOL).all(axis=1)
    if vanished.any():
        i, j = pairs[int(np.argmax(vanished)) % len(pairs)]
        raise DegenerateSplitError(
            f"pair ({i},{j}): null vector vanished on both halves; reseed"
        )
    shape, scales = (B, len(pairs), M, need), scales.reshape(B, len(pairs), 1, need)
    precoders = np.empty((B, K, K - 1, M, need), complex)
    precoders[:, first, slots[0::2]] = top.reshape(shape) / scales  # V_ij of each pair i < j
    precoders[:, second, slots[1::2]] = bottom.reshape(shape) / scales  # its V_ji
    sv = np.linalg.svd(precoders, compute_uv=False)
    lost = _rank_lost(sv, floor=1.0)
    if lost.any():
        i, j = sorted(messages)[int(np.argmax(lost)) % len(messages)]  # user by partner
        raise DegenerateSplitError(
            f"precoder ({i}, {j}) lost column rank; reseed or re-pick basis vectors"
        )
    precoders.setflags(write=False)
    return precoders, sv[:, first, slots[0::2], 0], compressed


@dataclass(frozen=True)
class AlignmentScheme:
    """A fully assembled relaying scheme.

    ``compression`` is the relay's read-only (rows, N) compression matrix,
    q rows per antenna subset in lexicographic order, and ``row_residuals``
    the read-only residual of each row against its subset's stacked channel.
    ``precoders[i, k]`` is V_ij for user i's k-th partner j (k = j - (j > i)),
    one read-only (K, K-1, M, x) stack like ``BcScheme.filters``.
    ``aligned_basis`` maps the stacked pairwise symbol sums to the compressed
    relay observation; it is square and well conditioned for generic channels.
    """

    cfg: SystemConfig
    beta: int
    alloc: StreamAllocation
    compression: np.ndarray
    row_residuals: np.ndarray
    precoders: np.ndarray
    aligned_basis: np.ndarray
    alignment_residual: float
    basis_condition: float

    @property
    def pair_blocks(self) -> list[tuple[tuple[int, int], int, int]]:
        """(pair, start, stop) column blocks in the aligned basis."""
        x = self.alloc.per_pair
        return [(p, k * x, (k + 1) * x) for k, p in enumerate(message_order(self.cfg.K)[0][0::2])]


def assemble_schemes(members: tuple[ChannelSet, ...], beta: int) -> list[AlignmentScheme]:
    """Build and certify one scheme per channel set, all of one cfg, in one batched pass.

    The members share ``allocate_streams(cfg, beta)``.  Every stage runs once
    over a leading member axis: one batched LU and QR per null-space stage,
    one product P H_g shared by the precoder stage and certification, Gram
    eigenvalues for the channel norms (a NaN or infinite entry raises), and
    one SVD each for the compression spectra, the precoder stack and the
    basis condition.  Every member's scheme is returned, or the first failing
    check raises and names the first member that fails it.  An empty batch
    raises ``ConfigurationError``, and members of different cfgs
    ``DimensionError``.

    A batch of two or more writes its null-space blocks and its row
    gathers into per-thread buffers that the next batch reuses (``_buffer``).
    Fresh arrays of that size are handed back to the system by the C
    allocator after every build and page-fault in again.  A single scheme
    takes fresh arrays, because held buffers raised the faults and the peak
    memory of processes that build single schemes of many sizes.
    """
    if not members:
        raise ConfigurationError("assemble_schemes needs at least one channel set")
    beta = check_integer(beta, "beta")
    alloc = allocate_streams(members[0].cfg, beta)
    for ch in members:
        if ch.cfg != alloc.cfg:
            raise DimensionError(f"channel cfg {ch.cfg} does not match {alloc.cfg}")
    H = np.array([ch.uplink for ch in members])  # B x K x N x M
    norms = _spectral_norms(H)
    if np.isnan(norms).any():
        b, g = np.argwhere(np.isnan(norms))[0]
        raise DegenerateChannelError(
            f"uplink {g} of member {b} has a NaN or infinite entry, or one too large to square"
        )
    norms.setflags(write=False)
    for ch, row in zip(members, norms):
        vars(ch).setdefault("uplink_norms", row)  # the cached property
    P, row_residuals, top = build_compression_matrix(H, norms, alloc, beta)
    V, v_norms, compressed = build_precoders(H, norms, P, alloc, beta)
    _, (users, slots), _ = message_order(alloc.cfg.K)
    first, second, span = users[0::2], users[1::2], np.arange(alloc.rows)
    # P H_i V_ij and P H_j V_ji of every pair i < j; each gather is used before the next
    blocks = _gather(compressed, first[:, None], span) @ V[:, first, slots[0::2]]
    other = _gather(compressed, second[:, None], span) @ V[:, second, slots[1::2]]
    residuals = np.abs(blocks - other).max(axis=(2, 3))  # blocks: B x pairs x rows x x
    residuals /= top[:, None] * norms[:, first] * v_norms
    residual = np.max(residuals, axis=1)  # np.max keeps a NaN, builtin max drops it
    failed = ~(residual <= ALIGNMENT_TOL)
    if failed.any():
        raise AlignmentVerificationError(
            f"alignment residual {residual[np.argmax(failed)]:.3e} exceeds {ALIGNMENT_TOL:.1e}"
        )
    # rows x rows per member: one column per network-coded sum, pair blocks side by side
    basis = blocks.transpose(0, 2, 1, 3).reshape(len(members), alloc.rows, -1)
    spectra = np.linalg.svd(basis, compute_uv=False)
    conditions = [float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf for sv in spectra]
    bad = next((c for c in conditions if not c <= BASIS_COND_MAX), None)
    if bad is not None:
        raise DecodabilityError(
            f"aligned basis condition number {bad:.3e} exceeds {BASIS_COND_MAX:.1e}"
        )
    basis.setflags(write=False)
    return [
        AlignmentScheme(
            cfg=alloc.cfg, beta=beta, alloc=alloc, compression=p, row_residuals=r,
            precoders=v, aligned_basis=b, alignment_residual=float(e), basis_condition=c,
        )
        for p, r, v, b, e, c in zip(P, row_residuals, V, basis, residual, conditions)
    ]


def assemble_scheme(ch: ChannelSet, alloc: StreamAllocation, beta: int) -> AlignmentScheme:
    """Build and certify one scheme; ``alloc`` must be ``allocate_streams(ch.cfg, beta)``."""
    scheme = assemble_schemes((ch,), beta)[0]
    if scheme.alloc != alloc:
        raise DimensionError(f"{alloc} is not the beta={beta} allocation of {ch.cfg}")
    return scheme


@dataclass(frozen=True)
class PairCheck:
    """Verification outcome for one unordered pair."""

    null_rows_found: int
    null_rows_required: int
    condition1: bool
    precoder_residual: float
    residual_tolerance: float
    condition2: bool

    @property
    def passed(self) -> bool:
        return self.condition1 and self.condition2


@dataclass(frozen=True)
class AlignmentReport:
    """Independent re-check of the scheme's two structural conditions."""

    per_pair: dict[tuple[int, int], PairCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.per_pair.values())


def verify_alignment_conditions(scheme: AlignmentScheme, ch: ChannelSet) -> AlignmentReport:
    """Re-derive both alignment conditions from the raw matrices, all pairs at once.

    Condition 1 counts the compression rows that annihilate the stacked
    pair channel ``[H_i, -H_j]`` and compares against ``rows - 2M + d_ij``.
    Condition 2 measures the residual of the stacked precoder against the
    compressed pair channel ``a = [P H_i, -P H_j]``.  The scales are
    max(||H_i||_2, ||H_j||_2) and max(||P H_i||_2, ||P H_j||_2), lower bounds
    on the pair norms within a factor sqrt(2), so no gate is looser than
    with the pair norms; both are Gram eigenvalues.  A non-finite channel
    entry or compression row fails its pairs instead of raising.  Nothing
    comes from the construction's provenance, so a corrupted row or
    perturbed precoder is caught.
    """
    if ch.cfg != scheme.cfg:
        raise DimensionError(f"channel cfg {ch.cfg} does not match scheme cfg {scheme.cfg}")
    P, M = scheme.compression, scheme.cfg.M
    messages, sent, _ = message_order(scheme.cfg.K)
    pairs, first, second = messages[0::2], sent[0][0::2], sent[0][1::2]
    compressed = P @ ch.uplink  # K x rows x M
    a = np.concatenate([compressed[first], -compressed[second]], axis=2)
    scale = VERIFY_TOL * np.maximum(ch.uplink_norms[first], ch.uplink_norms[second])
    found = np.count_nonzero(
        np.linalg.norm(a, axis=2) <= scale[:, None] * np.linalg.norm(P, axis=1), axis=1
    )
    required = P.shape[0] - 2 * M + scheme.alloc.per_pair
    v = scheme.precoders[sent]  # V_ij then V_ji for each pair
    residuals = np.abs(a @ v.reshape(len(pairs), 2 * M, -1)).max(axis=(1, 2), initial=0.0)
    norms = _spectral_norms(compressed)  # NaN for a non-finite P H_g fails its pairs
    tolerances = VERIFY_TOL * np.maximum(1.0, np.maximum(norms[first], norms[second]))
    return AlignmentReport(per_pair={
        pair: PairCheck(int(n), required, bool(n >= required), float(r), float(t), bool(r <= t))
        for pair, n, r, t in zip(pairs, found, residuals, tolerances)
    })


def complex_matrix_to_pairs(m: np.ndarray) -> list:
    """Nested lists of a complex array with each entry as a [re, im] pair, row major."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def scheme_to_dict(scheme: AlignmentScheme) -> dict:
    """JSON-ready scheme export (matrices as row-major [re, im] pairs)."""
    keys = [f"{i},{j}" for i, j in sorted(message_order(scheme.cfg.K)[0])]  # user by partner
    precoders = itertools.chain.from_iterable(complex_matrix_to_pairs(scheme.precoders))
    return {
        "cfg": {"K": scheme.cfg.K, "M": scheme.cfg.M, "N": scheme.cfg.N},
        "beta": scheme.beta,
        "compression": {
            "matrix": complex_matrix_to_pairs(scheme.compression),
            "row_residuals": [float(r) for r in scheme.row_residuals],
        },
        "precoders": dict(zip(keys, precoders)),  # user by partner, as the stack
        "aligned_basis": complex_matrix_to_pairs(scheme.aligned_basis),
        "metrics": {
            "alignment_residual": scheme.alignment_residual,
            "basis_condition": scheme.basis_condition,
        },
    }


def _stored_matrix(rows: list, shape: tuple[int, int], what: str) -> np.ndarray:
    """Decode a stored matrix: non-empty, equally long rows of [re, im] number pairs.

    Any other layout, NaN or infinite entries (``json`` reads ``NaN`` and
    ``Infinity``) and a shape other than ``shape`` raise ``ConfigurationError``.
    """
    try:
        pairs = np.array(rows, dtype=np.float64)
        layout = pairs.ndim == 3 and pairs.shape[2] == 2 and 0 not in pairs.shape
    except (TypeError, ValueError, OverflowError):  # ragged, or an entry float() refuses
        layout = False
    if layout:  # float64 conversion alone would also take "1.5" and true
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
        layout = set(map(type, entries)) <= {int, float}
    if not layout:
        raise ConfigurationError(
            "stored matrix must be non-empty, equally long rows of [re, im] number pairs"
        )
    if not np.isfinite(pairs).all():
        raise ConfigurationError("stored matrix has a NaN or infinite entry")
    m = pairs.view(np.complex128)[..., 0]
    if m.shape != shape:
        raise ConfigurationError(f"scheme {what} has shape {m.shape}, expected {shape}")
    m.setflags(write=False)
    return m


def _stored_section(value: object, kind: type, what: str):
    """``value`` if it is a ``kind``: dict for a JSON object, list for an array.

    A section of another JSON type raises ``ConfigurationError`` naming ``what``.
    """
    if not isinstance(value, kind):
        name = {dict: "object", list: "array"}[kind]
        raise ConfigurationError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


def _finite_non_negative(v: object) -> bool:
    """A JSON number in [0, largest float] (a bool is not a number)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= float_info.max


def scheme_from_dict(data: dict) -> AlignmentScheme:
    """Load an exported scheme; allocation and shapes follow from cfg and beta."""
    try:
        data = _stored_section(data, dict, "scheme")
        dims = _stored_section(data["cfg"], dict, "scheme cfg")
        cfg = SystemConfig(dims["K"], dims["M"], dims["N"])
        stored_precoders = _stored_section(data["precoders"], dict, "scheme precoders")
        stored = _stored_section(data["compression"], dict, "scheme compression")
        beta, basis_pairs, matrix_pairs = data["beta"], data["aligned_basis"], stored["matrix"]
        residuals = _stored_section(stored["row_residuals"], list, "scheme row_residuals")
        stored_metrics = _stored_section(data["metrics"], dict, "scheme metrics")
        metrics = stored_metrics["alignment_residual"], stored_metrics["basis_condition"]
    except KeyError as exc:
        raise ConfigurationError(f"scheme has no {exc} entry") from exc
    # the key list costs O(K^2), so a file with the wrong precoder count builds none; one
    # with the right count holds K(K-1) entries, which bounds the allocation's C(K, beta)
    keys = []
    if len(stored_precoders) == cfg.K * (cfg.K - 1):
        keys = [f"{i},{j}" for i, j in sorted(message_order(cfg.K)[0])]  # user by partner
    if not keys or set(stored_precoders) != set(keys):
        raise ConfigurationError("scheme needs a precoder for every ordered pair")
    try:
        beta = check_integer(beta, "beta")  # an int, for the scheme's JSON
        alloc = allocate_streams(cfg, beta)
    except YChannelError as exc:
        raise ConfigurationError(f"scheme cfg and beta={beta!r} have no allocation: {exc}") from exc
    x, rows = alloc.per_pair, alloc.rows
    if len(residuals) != rows or not all(map(_finite_non_negative, (*residuals, *metrics))):
        raise ConfigurationError(
            f"scheme needs {rows} row residuals and two metrics, each finite and non-negative"
        )
    residuals = np.asarray(residuals, dtype=float)
    residuals.setflags(write=False)
    precoders = [_stored_matrix(stored_precoders[k], (cfg.M, x), f"precoder {k}") for k in keys]
    precoders = np.reshape(precoders, (cfg.K, cfg.K - 1, cfg.M, x))
    precoders.setflags(write=False)
    basis = _stored_matrix(basis_pairs, (rows, rows), "aligned basis")
    return AlignmentScheme(
        cfg=cfg,
        beta=beta,
        alloc=alloc,
        compression=_stored_matrix(matrix_pairs, (rows, cfg.N), "compression"),
        row_residuals=residuals,
        precoders=precoders,
        aligned_basis=basis,
        alignment_residual=float(metrics[0]),
        basis_condition=float(metrics[1]),
    )


def save_scheme(scheme: AlignmentScheme, path: str) -> None:
    text = json.dumps(scheme_to_dict(scheme))  # the C encoder; json.dump streams in Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scheme(path: str) -> AlignmentScheme:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # a decode error, or nesting past the stack
        raise ConfigurationError(f"scheme file {path} is not readable UTF-8 JSON: {exc}") from exc
    return scheme_from_dict(data)
