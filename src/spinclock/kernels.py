"""Hot numeric kernels, vectorized with numpy.

The two inner loops that dominate runtime are (1) evaluating batches of
spin coherent-state amplitude vectors and (2) summing the weighted
rank-one projectors  sum_k c_k |xi_k><xi_k|  over a sphere grid.

Every |xi| and |xi|^2 of a chart label comes from abs_and_square, rounded
as Python's abs(xi) and abs(xi) ** 2, so the amplitudes, the overlap
closed form, the clock symbol and the spin symbols read one modulus.
Amplitudes are computed in the log domain so that large spins and large
|xi| neither overflow nor lose the normalization; log(1 + |xi|^2) stays
finite where |xi|^2 itself overflows (log1p_square), and where a closed
form needs |xi|^2 itself it reads the antipodal label 1/xi instead
(antipodal_where_far).

The projector sum works on the rings of the sphere grid (see grids).
On a ring of radius rho the amplitudes factor as a_n(rho) e^{i n phi}
with real a_n, so entry (n, n') of the sum is

    sum_rings a_n a_n' sum_phi c(rho, phi) e^{i (n - n') phi},

and the inner sum is column (n' - n) mod n_azimuthal of the azimuthal
FFT of c on that ring.  Coefficients given one per ring reach only
column 0, so no FFT runs and only the diagonals d = 0 mod n_azimuthal
are computed, each as one real sum over the rings written straight into
the result, the rest being exactly zero.  For real per-node
coefficients one np.fft.rfft per ring gives every column, and the kernel
computes one triangle and mirrors it as its conjugate, so the result is
exactly Hermitian.  Each computed diagonal d costs a weighted sum over
the rings of a_n a_{n-d}: per-node coefficients cost O(n_polar (n_az log
n_az + dim^2)) against O(npts dim^2) for the dense sum over the nodes,
per-ring ones O(n_polar dim) if n_az > 2j.

The temporaries are n_polar x n_az and n_polar x dim, never npts x dim:
the spectrum columns the diagonals read are gathered once into a
(dim, 2, n_polar) real array, and the products a_n a_{n-d} are formed in
blocks of 256 rows, halved while a block holds more than 2**17 products,
in one reused buffer.  Each block's sums over the rings are one
np.matmul: a gemm of the two rows of spectrum with the block, or for
per-ring coefficients a gemv of the block with the ring sums.  The gemm
writes straight into a packed triangle: Re and Im of entries
(i, i+d), diagonal after diagonal, dim (dim+1) floats held in the first
half of the result's own buffer.  After the last diagonal one mirror
writes a copy of the packed triangle, and its conjugate, into the
result: the main diagonal through a strided view, each off-diagonal
triangle through one boolean-masked view of the result reshaped to
(dim-1, dim+1), which lists its entries in the packed order.  No
diagonal allocates or writes anything of its own.

The sums run in BLAS, yet their bytes do not depend on the BLAS thread
count, since each call is kept small.  Measured with numpy's OpenBLAS
0.3.31 at 1 and 2 threads, the bytes of a gemv moved from about 4.6e5
products per call, and those of the gemm from about 1e6 multiply-adds:
on 2100 rings, 256-row blocks moved both.  A block of at most 2**17
products stays 3.5 times below either.  A one-row block of per-ring
coefficients is summed in einsum instead: numpy runs a one-row gemv as a
dot product, which OpenBLAS splits over the rings beyond 10**4 of them.

The sum does no subnormal arithmetic on the amplitudes, which costs a
microcode assist per operation on common x86 cores.  Ring amplitudes
below 2**-511 are set to 0; every a_n <= 1, so the product of two kept
amplitudes is at least 2**-1022, the smallest normal double.  Each
dropped term is below 2**-511 |c_k|, so no entry moves by more than
2**-511 sum_k |c_k|, far below the sum's own rounding bound
eps sum_k |c_k|.

Every operator at spin j on one grid reads the same ring amplitudes, so
each process computes them once: a bounded LRU cache keeps the flushed
(2j+1, n_polar) table per ring radii (their bytes, so no grid reads
another grid's table) and 2j, 8 (2j+1) n_polar bytes each (82 KB at
j = 50, 32 MB at j = 1000 on the default grids), and another keeps the
log binomials per 2j.  Both hand out read-only arrays; each operator is a
new writable matrix.
"""

import functools
import math

import numpy as np

from .grids import SphereGrid

# ring amplitudes below this are dropped (see ring_projector_sum)
_FLUSH_BELOW = 2.0 ** -511
# ring_projector_sum forms the amplitude products in blocks of this many rows, halved
# while a block holds more than _BLOCK_SIZE products (see its docstring)
_BLOCK_ROWS = 256
_BLOCK_SIZE = 2 ** 17


@functools.lru_cache(maxsize=16)
def _log_binomial_halves(two_j: int) -> np.ndarray:
    """0.5 * log C(2j, n) for n = 0..2j.

    Cached per 2j; the array is read-only.
    """
    lf = _log_factorials(two_j)
    out = 0.5 * (lf[-1] - lf - lf[::-1])
    out.flags.writeable = False
    return out


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


def _log_magnitudes(xi: np.ndarray, two_j: int) -> np.ndarray:
    """log |c_n| = 0.5 log C(2j,n) + n log|xi| - j log(1+|xi|^2) for labels xi != 0.

    Returns a (len(xi), 2j+1) real array.
    """
    ax, ax_sq = abs_and_square(xi)
    base = -0.5 * two_j * log1p_square(ax, ax_sq)
    return _log_binomial_halves(two_j)[None, :] + np.outer(np.log(ax), np.arange(two_j + 1)) \
        + base[:, None]


def coherent_amplitudes(xi, two_j: int) -> np.ndarray:
    """Amplitude vectors of spin coherent states for a batch of labels.

    Returns an (npts, 2j+1) complex array; row k holds the coefficients
    c_n = (1+|xi_k|^2)^{-j} sqrt(C(2j,n)) xi_k^n on the number basis.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.complex128))
    out = np.zeros((xi.shape[0], two_j + 1), dtype=np.complex128)
    nz = xi != 0
    out[~nz, 0] = 1.0
    ph = np.angle(xi[nz])
    out[nz, :] = np.exp(_log_magnitudes(xi[nz], two_j) + 1j * np.outer(ph, np.arange(two_j + 1)))
    return out


@functools.lru_cache(maxsize=4)
def _ring_amplitudes(rho: bytes, two_j: int) -> np.ndarray:
    """Ring amplitudes a_n(rho_p) as a (2j+1, n_polar) array, those below 2**-511 set to 0.

    rho holds the float64 bytes of the ring radii.  Every ring starts at
    azimuth 0, where the amplitudes are real (rho > 0 at every
    Gauss-Legendre node).  Cached per radii and 2j; the array is read-only.
    """
    amps = np.exp(_log_magnitudes(np.frombuffer(rho), two_j)).T.copy()
    # a_n <= 1, so a product of two kept amplitudes is at least 2**-1022, never subnormal
    amps[amps < _FLUSH_BELOW] = 0.0
    amps.flags.writeable = False
    return amps


def ring_projector_sum(grid: SphereGrid, coeff, two_j: int) -> np.ndarray:
    """sum_k coeff[k] |xi_k><xi_k| over the nodes of grid, a dense (2j+1, 2j+1) matrix.

    coeff holds one value per grid node in the grid's order, or one value
    per ring when it is constant on each ring; then only the diagonals
    d = 0 mod n_azimuthal are computed, each as one real sum over the
    rings, and the rest are exactly zero, so a grid with n_azimuthal <= 2j
    still gives the aliased quadrature sum.  Per-node coefficients fill
    every diagonal: each block's sums go straight into a packed upper
    triangle, and one mirror after the last diagonal writes it and its
    conjugate into the result (see the module docstring).  Real
    coefficients give an exactly Hermitian result; complex ones are
    summed as S(Re coeff) + i S(Im coeff).  Ring amplitudes below 2**-511
    are dropped, which moves no entry by more than 2**-511 sum_k |coeff[k]|
    (see the module docstring).  The sums over the rings run in BLAS, one
    np.matmul per block of at most 2**17 products, a size at which their
    bytes do not depend on the BLAS thread count, but for one-row blocks of
    per-ring coefficients, which run in einsum (see the module docstring).
    """
    coeff = np.asarray(coeff)
    if np.iscomplexobj(coeff):
        return (ring_projector_sum(grid, coeff.real, two_j)
                + 1j * ring_projector_sum(grid, coeff.imag, two_j))
    dim, n_az, n_polar = two_j + 1, grid.n_azimuthal, len(grid.rho)
    coeff = coeff.reshape(n_polar, -1)
    amps = _ring_amplitudes(np.asarray(grid.rho, dtype=np.float64).tobytes(), two_j)
    if coeff.shape[1] == 1:
        return _ring_constant_sum(amps, n_az * coeff[:, 0], n_az)
    # spectrum[p, q] = sum_a coeff[p, a] e^{-2 pi i q a / n_az} for q <= n_az // 2;
    # column n_az - q is its conjugate because coeff is real
    spectrum = np.fft.rfft(coeff, axis=1)
    # cols[d] holds Re and Im over the rings of column q = d mod n_az
    q = np.arange(dim) % n_az
    mirrored = q > n_az // 2
    q[mirrored] = n_az - q[mirrored]
    cols = np.empty((dim, 2, n_polar))
    cols[:, 0] = spectrum.real.T[q]
    cols[:, 1] = spectrum.imag.T[q]
    np.negative(cols[:, 1], out=cols[:, 1], where=mirrored[:, None])
    del spectrum
    product = _product_buffer(dim, n_polar)
    out = np.empty((dim, dim), dtype=np.complex128)
    # packed[:, k] holds Re and Im of entry (i, i+d), k = offset_d + i, diagonal after
    # diagonal, in the first dim (dim+1) floats of the result's own buffer, so the loop
    # holds no more than cols, product and the result.  A result allocated after the loop
    # instead sat on top of the heap, and freeing it later trimmed the heap (about 0.2 ms)
    packed = out.reshape(-1).view(np.float64)[:dim * (dim + 1)].reshape(2, -1)
    offset = 0
    for d in range(dim):
        for start in range(0, dim - d, len(product)):
            stop = min(start + len(product), dim - d)
            # entries (n-d, n) carry e^{-i d phi}: sum_p a_{n-d} a_n cols[d, :, p]
            block = np.multiply(amps[d + start:d + stop], amps[start:stop],
                                out=product[:stop - start])
            np.matmul(cols[d], block.T, out=packed[:, offset + start:offset + stop])
        offset += dim - d
    del cols, product
    _mirror_packed(packed, out)
    return out


def _ring_constant_sum(amps: np.ndarray, col: np.ndarray, n_az: int) -> np.ndarray:
    """The ring sum of coefficients constant on each ring, col[p] being their sum on ring p.

    Only the diagonals d = 0 mod n_az are non-zero, and they are real: entry
    (i, i+d) and entry (i+d, i) are sum_p a_{i+d} a_i col[p].  The imaginary
    parts are +0.0, but -0.0 below the main diagonal on those diagonals, the
    negated +0.0 of a real sum's conjugate.
    """
    dim, n_polar = amps.shape
    product = _product_buffer(dim, n_polar)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out_re, out_im = out.real.reshape(-1), out.imag.reshape(-1)
    vals = np.empty(dim)
    for d in range(0, dim, n_az):
        for start in range(0, dim - d, len(product)):
            stop = min(start + len(product), dim - d)
            block = np.multiply(amps[d + start:d + stop], amps[start:stop],
                                out=product[:stop - start])
            if stop - start == 1:
                # numpy runs a one-row gemv as a dot product, which OpenBLAS splits over
                # the rings beyond 10**4 of them; einsum sums it on one thread
                vals[start] = np.einsum("r,r->", block[0], col)
            else:
                np.matmul(block, col, out=vals[start:stop])
        # entry i of each: (i, i+d) above the diagonal, (i+d, i) below it
        out_re[d:(dim - d) * dim:dim + 1] = out_re[d * dim::dim + 1] = vals[:dim - d]
        if d:
            out_im[d * dim::dim + 1] = -0.0
    return out


def _product_buffer(dim: int, n_polar: int) -> np.ndarray:
    """A buffer for blocks of amplitude products: _BLOCK_ROWS rows of n_polar, halved
    while the block holds more than _BLOCK_SIZE products.

    The power-of-two rows hold the bytes too, not only the size: the sums
    of 256-row blocks match those of one gemv over the whole diagonal byte
    for byte, and blocks of 2**17 // n_polar rows (326 at j = 200, in place
    of 256 + 145) do not (test_resolution_of_unity_bytes_match_reference_ring_sum).
    """
    rows = _BLOCK_ROWS
    while rows > 1 and rows * n_polar > _BLOCK_SIZE:
        rows //= 2
    return np.empty((min(dim, rows), n_polar))


def _mirror_packed(packed: np.ndarray, out: np.ndarray):
    """Write the packed upper triangle and its conjugate into the (dim, dim) matrix out.

    packed[:, k] holds Re and Im of entry (i, i+d) at k = d dim - d (d-1)/2 + i;
    it may lie in out's own buffer, since it is read into one complex copy
    before out is written.  The main diagonal is a strided view.  Reshaped
    to (dim-1, dim+1), the first dim^2 - 1 entries of out hold entry
    (i, i+d) at [i, d] and entry (i+d, i) at [i+d-1, dim+1-d], so for d >= 1
    each triangle is one boolean-masked view that lists its entries in the
    packed order.
    """
    dim = len(out)
    vals = np.empty(packed.shape[1], dtype=np.complex128)
    vals.real, vals.imag = packed
    out.reshape(-1)[::dim + 1] = vals[:dim]
    skew = out.reshape(-1)[:dim * dim - 1].reshape(dim - 1, dim + 1)
    tri = np.tri(dim - 1, dtype=bool)
    skew[:, 1:dim].T[tri[::-1]] = vals[dim:]
    skew[:, dim:1:-1].T[tri.T] = np.conjugate(vals[dim:], out=vals[dim:])
