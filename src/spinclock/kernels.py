"""Hot numeric kernels, vectorized with numpy.

The two inner loops that dominate runtime are (1) evaluating batches of
spin coherent-state amplitude vectors and (2) summing the weighted
rank-one projectors  sum_k c_k |xi_k><xi_k|  over a sphere grid.

Every |xi| and |xi|^2 of a chart label comes from abs_and_square, rounded
as Python's abs(xi) and abs(xi) ** 2, so the amplitudes, the overlap
closed form, the clock symbol and the spin symbols read one modulus.
The amplitude moduli come from a log-free recurrence run outward from
each label's mode (_magnitudes), so large spins and large |xi| neither
overflow nor lose the normalization, and each is off by a few eps, not by
the O(j eps) of a log sum whose terms of size j log j cancel.
log(1 + |xi|^2) stays finite where |xi|^2 itself overflows
(log1p_square), and where a closed form needs |xi|^2 itself it reads the
antipodal label 1/xi instead (antipodal_where_far).

The projector sum works on the rings of the sphere grid (see grids).
On a ring of radius rho the amplitudes factor as a_n(rho) e^{i n phi}
with real a_n, so entry (n, n') of the sum is

    sum_rings a_n a_n' sum_phi c(rho, phi) e^{i (n - n') phi},

and the inner sum is column (n' - n) mod n_azimuthal of the azimuthal
FFT of c on that ring.  Coefficients constant on each ring reach only
column 0, and on a grid of n_azimuthal > 2j that column reaches only the
main diagonal: per_ring_sum runs no FFT and computes it as one
two-operand np.einsum over the rings of the coefficients and the cached
rows G_{2i} below, the rest being exactly zero.  Every other sum goes to
ring_projector_sum: for real per-node coefficients one np.fft.rfft per
ring gives every column, for one value per ring on an aliased grid
(n_azimuthal <= 2j) column 0 alone is built, and the kernel computes one
triangle and mirrors it as its conjugate, so the result is exactly
Hermitian.  That costs O(n_polar (n_az log n_az + dim^2)) against
O(npts dim^2) for the dense sum over the nodes; the main diagonal alone
O(n_polar dim).

Per-node coefficients fill every diagonal by anti-diagonals.  Entry
(l, u) of the triangle, l <= u, has s = l + u, and at every rho

    a_l a_u = R_{l,u} G_s,   G_s = a_{s//2} a_{s-s//2},
    R_{l,u} = sqrt(C(2j,l) C(2j,u) / (C(2j,s//2) C(2j,s-s//2))),

since the powers of rho and of 1+rho^2 are the same on both sides.  So
one table of 4j+1 rows G_s serves every diagonal, cached per parity p of
s, row k = s//2 being a_k^2 for even s and a_k a_{k+1} for odd s; the
per-ring sums read the rows of parity 0.  Entry (i, i+d) of
diagonal d = 2t + p is the ring sum of row k = i + t with the spectrum
column of d, so the sums of one parity are the band t <= k <= 2j - p - t
of one matrix product M_p = G_p C_p^T, where C_p holds the Re and Im of
the columns of the diagonals of parity p, gathered once, parity-major,
into one (dim, 2, n_polar) real array.  The band is summed in tiles of W
diagonals, laid from the last one, over the rows their first diagonal
needs, in blocks of at most R rows (_tile): W = 8, halved down to 2 while
2W rows would hold more than 2**17 products, and R as many rows as keep
a tile within 2**17 products, at least 3.  That is 8 x 81 on the 202 rings
of j = 100 (48 calls in place of the 201 two-row gemms of one product
per diagonal), 4 x 15 on 2100 rings and 2 x 4 on 15568 rings; at j = 100
the tiles take 0.51 ms, where the two-row gemms took 1.08 (one BLAS
thread, warm).  M_0 and M_1 lie in the result's own buffer,
dim ceil(dim/2) + (dim-1) floor(dim/2) of its dim^2 complex entries.
One np.take through a cached intp index gathers their
band into a packed triangle, entries (i, i+d) diagonal after diagonal,
which is multiplied once by the read-only table of R in the same order.
R <= 1 since the binomials are log-concave, and R = 1 on d = 0 and 1; the
table is built along the anti-diagonals, whose steps have exact integer
factors, and cached per 2j with the index (_packed_tables), 8 dim (dim+1)
bytes: 325 KB at j = 100, 32 MB at j = 1000.  Then one mirror writes the
packed triangle, and its conjugate, into the result: the main diagonal
through a strided view, each off-diagonal triangle through one
boolean-masked view of the result reshaped to (dim-1, dim+1), which lists
its entries in the packed order.  The temporaries are n_polar x n_az and
n_polar x dim, never npts x dim: the spectrum, its gathered columns and
the packed triangle.

The per-node tiles run in BLAS, yet their bytes do not depend on the
BLAS thread count, since each call is kept small.  Measured with numpy's
OpenBLAS 0.3.31 at 1 and 2 threads, the bytes of a gemm moved from about
1e6 multiply-adds.  A tile of at most 2**18 multiply-adds stays 3.5
times below that; OpenBLAS runs a gemm of that size on one thread.
numpy runs a product of one row as a gemv, which OpenBLAS splits over
threads at sizes where it runs a gemm on one (a 1 x 4096 row times a
4096 x 64 matrix ran on two), so no tile block is one row where dim > 2.
The per-ring sums run in einsum, which never calls BLAS, so their bytes
do not depend on the thread count at any size; aliased per-ring sums run
in the per-node tiles.

The ring sums do almost no subnormal arithmetic, which costs a microcode
assist per operation on common x86 cores.  Ring amplitudes below
2**-450 are set to 0.  Every a_n <= 1, so each kept G_s is at least
2**-900, and its product with a coefficient or spectrum entry c is
normal unless |c| < 2**-122.  A term a_l a_u c_k is dropped only where a
factor of its G_s, a_{s//2} or a_{s-s//2} with s = l + u, is below
2**-450, and then a_l a_u < 2**-450 since a_l a_u <= G_s: no entry
moves by more than 2**-450 sum_k |c_k|, far below the sum's own rounding
bound eps sum_k |c_k|.

Every operator at spin j on one grid reads the same rows G_s, so each
process computes them once: a bounded LRU cache (_ring_products) keeps
the rows of one parity per ring radii (their bytes, so no grid reads
another grid's rows), 2j and parity, about 8 (2j+1) n_polar bytes each
(82 KB at j = 50, 32 MB at j = 1000 on the default grids).  The rows are
formed in the flushed amplitude table itself, so a miss holds no second
table.  The per-ring sums read parity 0 alone, the per-node sums both.
Another cache keeps the table of R and the band index per 2j, which only
ring_projector_sum reads.  Both hand out read-only arrays; each operator
is a new writable matrix.
"""

import functools
import math

import numpy as np

from .grids import SphereGrid

# ring amplitudes below this are dropped (see the module docstring)
_FLUSH_BELOW = 2.0 ** -450
# the products of one per-node tile: 2 * _BLOCK_SIZE multiply-adds at most (see _tile)
_BLOCK_SIZE = 2 ** 17


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, by math.lgamma; a new array on every call."""
    return np.array([math.lgamma(k + 1) for k in range(n + 1)])


def abs_and_square(xi) -> tuple[np.ndarray, np.ndarray]:
    """|xi| and |xi|^2 of chart labels, rounded as Python's abs(xi) and abs(xi) ** 2.

    np.hypot rounds as abs and np.float_power calls the C pow that ** calls.
    On arrays np.abs differs from np.hypot in the last ulp for about a third
    of complex labels, and ** 2 (np.square) from np.float_power for about
    0.1 %, ring radii included.  |xi|^2 is inf where it overflows, for
    |xi| above sqrt(DBL_MAX) = 1.3407807929942596e154, and so is |xi| where
    it overflows, as for 1.5e308 - 1.5e308j.  xi is a complex128 or float64
    array or scalar.
    """
    with np.errstate(over="ignore"):
        a = np.hypot(xi.real, xi.imag)
        return a, np.float_power(a, 2)


def log1p_square(a, a_sq):
    """log(1 + a^2) for a >= 0, given a_sq = a^2 from abs_and_square.

    This is np.log1p(a_sq), bit for bit, wherever a_sq is finite.  Where
    a^2 overflows to inf it is 2 log(a) + log1p(a^-2), so it stays finite
    for every finite a.
    """
    far = np.isinf(a_sq)
    a_far = np.where(far, a, 1.0)
    return np.where(far, 2.0 * np.log(a_far) + np.log1p(a_far ** -2.0), np.log1p(a_sq))


def antipodal_where_far(xi) -> tuple[np.ndarray, ...]:
    """(u, far, |u|, |u|^2): u is the label xi, or its antipodal label 1/xi where |xi|^2 overflows.

    far marks the antipodal labels, and |u|, |u|^2 come from abs_and_square.
    np.reciprocal rounds as Python's 1 / xi but for the sign of a zero
    part; numpy's 1.0 / xi multiplies by a rounded reciprocal instead.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    far = np.isinf(abs_and_square(xi)[1])
    with np.errstate(over="ignore"):  # np.reciprocal overflows inside for parts near DBL_MAX
        u = np.where(far, np.reciprocal(np.where(far, xi, 1.0)), xi)
    return (u, far) + abs_and_square(u)


def _magnitudes(rho: np.ndarray, two_j: int) -> np.ndarray:
    """|c_n| = sqrt(C(2j,n)) rho^n / (1+rho^2)^j at moduli rho >= 0, a (2j+1, len(rho)) array.

    No logarithm: each column runs the recurrence
    a_{n+1} = a_n rho sqrt((2j-n)/(n+1)) outward from its mode m, the first
    n at which that factor falls below 1, from a_m = 1, by one cumprod
    upward and one downward (each step there divides by the factor), and is
    then divided by sqrt(sum_n a_n^2).  Every factor taken outward from the
    mode is at most 1, so nothing overflows, and each amplitude is off by
    the roundings of its steps from the mode and of the norm, not by the
    O(j eps) of a cancelling log sum (test_ring_amplitudes_match_mpmath).
    rho = 0 gives e_0 and a NaN modulus a NaN column.  Both cumprods run in
    place, down the rows, so the temporaries are one more (2j, len(rho))
    array and boolean masks.
    """
    k = np.arange(two_j, dtype=np.float64)[:, None]
    out = np.empty((two_j + 1, len(rho)))
    out[0] = 1.0
    fall = np.empty((two_j, len(rho)))
    # out[k+1] = a_{k+1} / a_k from the mode up, fall[k] = a_k / a_{k+1} below it; the
    # factors that overflow, for rho near 0 or DBL_MAX, lie on the side that is set to 1
    with np.errstate(divide="ignore", over="ignore"):
        np.multiply(np.sqrt((two_j - k) / (k + 1.0)), rho, out=out[1:])
        np.divide(np.sqrt((k + 1.0) / (two_j - k)), rho, out=fall)
    below = k < np.count_nonzero(out[1:] >= 1.0, axis=0)
    np.copyto(out[1:], 1.0, where=below)
    np.copyto(fall, 1.0, where=np.logical_not(below, out=below))
    np.multiply.accumulate(out, axis=0, out=out)
    np.multiply.accumulate(fall[::-1], axis=0, out=fall[::-1])
    out[:-1] *= fall
    del fall
    # the squares of each column in a row of their own, so that sum adds them pairwise
    out /= np.sqrt(np.square(out.T, order="C").sum(axis=1))
    return out


def coherent_amplitudes(xi, two_j: int) -> np.ndarray:
    """Amplitude vectors of spin coherent states for a batch of labels.

    Returns an (npts, 2j+1) complex array; row k holds the coefficients
    c_n = (1+|xi_k|^2)^{-j} sqrt(C(2j,n)) xi_k^n on the number basis, as
    |c_n| from _magnitudes times e^{i n arg xi_k}.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.complex128))
    phase = np.exp(1j * np.multiply.outer(np.angle(xi), np.arange(two_j + 1)))
    return np.multiply(_magnitudes(abs_and_square(xi)[0], two_j).T, phase, out=phase)


@functools.lru_cache(maxsize=8)
def _ring_products(rho: bytes, two_j: int, parity: int) -> np.ndarray:
    """The rows G_{2k+parity} = a_k a_{k+parity} of the ring amplitudes a_n(rho_p), a
    (2j+1-parity, n_polar) array, with each amplitude below 2**-450 set to 0 first.

    rho holds the float64 bytes of the ring radii.  Every ring starts at
    azimuth 0, where the amplitudes are real (rho > 0 at every
    Gauss-Legendre node).  The rows are formed in the amplitude table
    itself, so a miss holds no second table: squared in place for parity
    0, and for parity 1 multiplied by the next row in blocks taken from
    the top, each of which reads a row before it is overwritten.  Cached
    per radii, 2j and parity; the array is read-only.
    """
    g = _magnitudes(np.frombuffer(rho), two_j)
    # a_n <= 1, so a product of two kept amplitudes is at least 2**-900 (see the module docstring)
    g[g < _FLUSH_BELOW] = 0.0
    if parity:
        # numpy copies the overlapping next rows of a block, at most _BLOCK_SIZE products
        step = max(1, _BLOCK_SIZE // g.shape[1])
        for top in range(0, two_j, step):
            bottom = min(top + step, two_j)
            np.multiply(g[top:bottom], g[top + 1:bottom + 1], out=g[top:bottom])
    else:
        np.square(g, out=g)
    g.flags.writeable = False
    return g[:two_j + 1 - parity]


@functools.lru_cache(maxsize=4)
def _packed_tables(two_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The ratios R and the band index of the packed triangle of ring_projector_sum, its
    only reader.

    Entry k = d dim - d (d-1)/2 + i of each belongs to entry (i, i+d).
    ratios[k] = sqrt(C(2j,i) C(2j,i+d) / (C(2j,s//2) C(2j,s-s//2))),
    s = 2i + d, so a_i a_{i+d} = R G_s with G_s = a_{s//2} a_{s-s//2} at
    every rho.  R = 1 on d = 0 and 1; each diagonal d >= 2 is one step out
    along the anti-diagonals from diagonal d - 2,
    R(l-1, u+1) = R(l, u) sqrt(l (2j-u) / ((2j-l+1) (u+1))), whose integer
    factors are exact.  R <= 1 since the binomials are log-concave.
    index[k] is the complex offset, in the result's buffer, of the ring sum
    of G_s with the spectrum column of d: entry [s//2, d//2] of the band
    product M_p, p = d % 2, which holds dim - p rows of (dim + 1 - p) // 2
    entries, M_1 after M_0.  It is intp, the index type np.take reads: an
    int32 table, half the size, cost a converted copy of it on every call.
    Cached per 2j; 4 dim (dim+1) bytes each, 162 KB at j = 100 (325 KB the
    pair); read-only.
    """
    dim, n_even = two_j + 1, (two_j + 2) // 2
    ratios = np.ones(dim * (dim + 1) // 2)
    index = np.empty(len(ratios), dtype=np.intp)
    for d in range(dim):
        offset = d * dim - d * (d - 1) // 2
        # rows t .. t + dim - d - 1 of column t = d // 2 of M_{d % 2}, which has w columns
        t, w = d // 2, (dim + 1 - d % 2) // 2
        index[offset:offset + dim - d] = (d % 2) * dim * n_even + t + np.arange(t, t + dim - d) * w
        if d >= 2:
            # entry (l-1, u+1) of diagonal d from entry (l, u) = (i+1, i+d-1) of diagonal d-2
            low = np.arange(1, dim - d + 1)
            up = low + d - 2
            inner = (d - 2) * dim - (d - 2) * (d - 3) // 2 + 1
            np.multiply(ratios[inner:inner + dim - d],
                        np.sqrt(low * (two_j - up) / ((two_j - low + 1) * (up + 1))),
                        out=ratios[offset:offset + dim - d])
    ratios.flags.writeable = index.flags.writeable = False
    return ratios, index


def per_ring_sum(grid: SphereGrid, coeff, two_j: int) -> np.ndarray:
    """sum_k c_k |xi_k><xi_k| over the nodes of grid for c_k constant on each ring, a dense
    (2j+1, 2j+1) matrix, on a grid of n_azimuthal > 2j.

    coeff holds one value per ring, the c_k of every node on it.  It
    reaches only column 0 of each ring's spectrum, n_az coeff[p], and on
    such a grid that column reaches only the main diagonal: entry (i, i)
    is sum_p G_{2i} n_az coeff[p], one np.einsum over the cached rows of
    parity 0, which never calls BLAS.  Every other entry is exactly zero;
    complex coeff gives a complex diagonal.  coherent._diagonal_operator
    sends one value per ring on an aliased grid to ring_projector_sum.
    """
    dim = two_j + 1
    # the rows are looked up before the result is allocated, so that a miss builds them
    # while the heap holds no more than the coefficients
    rows = _ring_products(np.asarray(grid.rho, dtype=np.float64).tobytes(), two_j, 0)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out.reshape(-1)[::dim + 1] = np.einsum("ip,p->i", rows, grid.n_azimuthal * np.asarray(coeff))
    return out


def ring_projector_sum(grid: SphereGrid, coeff, two_j: int) -> np.ndarray:
    """sum_k coeff[k] |xi_k><xi_k| over the nodes of grid, a dense (2j+1, 2j+1) matrix.

    coeff holds one value per grid node in the grid's order, or one per
    ring for coefficients constant on each ring, which reach spectrum
    column 0 alone: that column is built as n_az coeff, with every other
    column exactly zero, where the rfft of repeated rows would leave
    roundings of about 1e-17 in them.  Every diagonal is filled by
    anti-diagonals: the ring sums of G_s = a_{s//2} a_{s-s//2} with
    every spectrum column are, per parity of s, one band of a matrix
    product, computed in tiles, then gathered into a packed upper
    triangle, multiplied once by the ratios of _packed_tables, and one
    mirror writes it and its conjugate into the result (see the module
    docstring).  Real coefficients give an exactly Hermitian result;
    complex ones are summed as S(Re coeff) + i S(Im coeff).  Ring
    amplitudes below 2**-450 are dropped, which moves no entry by more than
    2**-450 sum_k |coeff[k]| (see the module docstring).  The sums over the
    rings run in BLAS, one np.matmul per tile block of at most 2**18
    multiply-adds, a size at which their bytes do not depend on the BLAS
    thread count.
    """
    coeff = np.asarray(coeff)
    if np.iscomplexobj(coeff):
        return (ring_projector_sum(grid, coeff.real, two_j)
                + 1j * ring_projector_sum(grid, coeff.imag, two_j))
    dim, n_az, n_polar = two_j + 1, grid.n_azimuthal, len(grid.rho)
    rho = np.asarray(grid.rho, dtype=np.float64).tobytes()
    # a first call at this 2j builds the tables here, while the heap holds no more than
    # the coefficients: built after the tiles, they left the process 0.4 MiB larger at j = 100
    rows_of = [_ring_products(rho, two_j, parity) for parity in (0, 1)]
    ratios, index = _packed_tables(two_j)
    # spectrum[p, q] = sum_a coeff[p, a] e^{-2 pi i q a / n_az} for q <= n_az // 2;
    # column n_az - q is its conjugate because coeff is real
    if coeff.size == n_polar:
        spectrum = np.zeros((n_polar, n_az // 2 + 1))
        spectrum[:, 0] = n_az * coeff.ravel()
    else:
        spectrum = np.fft.rfft(coeff.reshape(n_polar, n_az), axis=1)
    # cols[t] holds Re and Im over the rings of column q = d mod n_az of the t-th diagonal
    # in the order d = 0, 2, 4, .., 1, 3, 5, ..: each parity's columns are one contiguous block
    q = np.concatenate((np.arange(0, dim, 2), np.arange(1, dim, 2))) % n_az
    mirrored = q > n_az // 2
    q[mirrored] = n_az - q[mirrored]
    cols = np.empty((dim, 2, n_polar))
    cols[:, 0] = spectrum.real.T[q]
    cols[:, 1] = spectrum.imag.T[q]
    np.negative(cols[:, 1], out=cols[:, 1], where=mirrored[:, None])
    del spectrum
    width, rows = _tile(n_polar)
    out = np.empty((dim, dim), dtype=np.complex128)
    # M_p[k, t] = Re + i Im of G_{2k+p} summed with the column of d = 2t + p, in the result's
    # own buffer, M_1 after M_0, so the tiles hold no more than cols and the result.
    # A result allocated after them instead sat on top of the heap, and freeing it later
    # trimmed the heap (about 0.2 ms)
    flat, n_even = out.reshape(-1).view(np.float64), (dim + 1) // 2
    for parity in (0, 1):
        n_rows, n_diag = dim - parity, (dim + 1 - parity) // 2
        # row k of g is G_{2k+parity}: a_k^2 for even s, a_k a_{k+1} for odd s
        g = rows_of[parity]
        c = cols[parity * n_even:][:n_diag].reshape(2 * n_diag, n_polar)
        band = flat[parity * 2 * dim * n_even:][:2 * n_rows * n_diag].reshape(n_rows, 2 * n_diag)
        # diagonal d = 2t + parity needs rows t <= k < n_rows - t; tiles of width diagonals
        # are laid from the last one, each over the rows its first diagonal needs, in
        # blocks of nearly equal size (see _tile)
        for right in range(n_diag, 0, -width):
            left = max(right - width, 0)
            height = n_rows - 2 * left
            blocks = -(-height // rows)
            for b in range(blocks):
                top, bottom = left + height * b // blocks, left + height * (b + 1) // blocks
                np.matmul(g[top:bottom], c[2 * left:2 * right].T,
                          out=band[top:bottom, 2 * left:2 * right])
    del cols, c
    vals = out.reshape(-1).take(index)
    np.multiply(vals.real, ratios, out=vals.real)
    np.multiply(vals.imag, ratios, out=vals.imag)
    _mirror_packed(vals, out)
    return out


def _tile(n_polar: int) -> tuple[int, int]:
    """(diagonals, rows) of a per-node tile: 8 diagonals, halved down to 2 while twice
    as many rows would hold more than _BLOCK_SIZE products, and as many rows as keep
    it within _BLOCK_SIZE, but at least 3.

    A tile of w diagonals and r rows is a gemm of 2 r w n_polar <= 2**18
    multiply-adds up to n_polar = 2**17 / 6 rings.  Laid from the last
    diagonal, a tile spans at least 2w - 1 >= 3 rows, or all dim - p of
    its parity, and blocks of nearly equal size of at most r >= 3 rows hold
    at least 2 each: where dim > 2 no product is one row, which numpy would
    run as a gemv (see the module docstring).
    """
    width = 8
    while width > 2 and 2 * width * width * n_polar > _BLOCK_SIZE:
        width //= 2
    return width, max(3, _BLOCK_SIZE // (width * n_polar))


def _mirror_packed(vals: np.ndarray, out: np.ndarray):
    """Write the packed upper triangle vals and its conjugate into the (dim, dim) matrix out.

    vals[k] is entry (i, i+d) at k = d dim - d (d-1)/2 + i, a complex array
    apart from out; its off-diagonal part is conjugated in place.  The main
    diagonal is a strided view.  Reshaped to (dim-1, dim+1), the first
    dim^2 - 1 entries of out hold entry (i, i+d) at [i, d] and entry (i+d, i)
    at [i+d-1, dim+1-d], so for d >= 1 each triangle is one boolean-masked
    view that lists its entries in the packed order.
    """
    dim = len(out)
    out.reshape(-1)[::dim + 1] = vals[:dim]
    skew = out.reshape(-1)[:dim * dim - 1].reshape(dim - 1, dim + 1)
    tri = np.tri(dim - 1, dtype=bool)
    skew[:, 1:dim].T[tri[::-1]] = vals[dim:]
    skew[:, dim:1:-1].T[tri.T] = np.conjugate(vals[dim:], out=vals[dim:])
