"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written as a literal, loop-heavy
transcription of the quantities under test and shares no code with the
package beyond numpy/scipy primitives; ``demo_video_einsum`` alone calls the
package's profile projection and bump-path helpers, since it checks how the
demo video's frames are assembled from them.
"""

import math

import numpy as np


def objective_literal(frames, masks, aux, left, right, lam1, lam2, lam3):
    """Term-by-term objective evaluation with explicit entry loops."""
    T, m, n = frames.shape
    total = 0.0
    for t in range(T):
        product = left[t] @ right[t].T
        for i in range(m):
            for j in range(n):
                if masks[t, i, j]:
                    total += 0.5 * (frames[t, i, j] - product[i, j]) ** 2
        total += lam1 / 2 * (np.sum(left[t] ** 2) + np.sum(right[t] ** 2))
        if t >= 1:
            prev = left[t - 1] @ right[t - 1].T
            total += lam2 / 2 * np.sum((product - prev) ** 2)
        if aux is not None:
            total += lam3 / 2 * np.sum((aux[t] - product) ** 2)
    return float(total)


def partial_objective_left(candidate, t, left, right, frames, masks, aux, lam1, lam2, lam3):
    """The frame-t objective piece as a function of the left factor (masked residual)."""
    T = frames.shape[0]
    product = candidate @ right[t].T
    value = 0.5 * np.sum((masks[t] * (frames[t] - product)) ** 2)
    value += lam1 / 2 * np.sum(candidate ** 2)
    if aux is not None:
        value += lam3 / 2 * np.sum((aux[t] - product) ** 2)
    if t > 0:
        value += lam2 / 2 * np.sum((product - left[t - 1] @ right[t - 1].T) ** 2)
    if t < T - 1:
        value += lam2 / 2 * np.sum((left[t + 1] @ right[t + 1].T - product) ** 2)
    return float(value)


def surrogate_left(candidate, t, left, right, frames, masks, aux, lam1, lam2, lam3):
    """Majorized frame-t piece: masked residual replaced by the filled-in residual."""
    T = frames.shape[0]
    filled = np.where(masks[t], frames[t], left[t] @ right[t].T)
    product = candidate @ right[t].T
    value = 0.5 * np.sum((filled - product) ** 2)
    value += lam1 / 2 * np.sum(candidate ** 2)
    if aux is not None:
        value += lam3 / 2 * np.sum((aux[t] - product) ** 2)
    if t > 0:
        value += lam2 / 2 * np.sum((product - left[t - 1] @ right[t - 1].T) ** 2)
    if t < T - 1:
        value += lam2 / 2 * np.sum((left[t + 1] @ right[t + 1].T - product) ** 2)
    return float(value)


def surrogate_right(candidate, t, left, right, frames, masks, aux, lam1, lam2, lam3):
    """Mirror of surrogate_left for the right factor (fill-in uses the new left)."""
    T = frames.shape[0]
    filled = np.where(masks[t], frames[t], left[t] @ right[t].T)
    product = left[t] @ candidate.T
    value = 0.5 * np.sum((filled - product) ** 2)
    value += lam1 / 2 * np.sum(candidate ** 2)
    if aux is not None:
        value += lam3 / 2 * np.sum((aux[t] - product) ** 2)
    if t > 0:
        value += lam2 / 2 * np.sum((product - left[t - 1] @ right[t - 1].T) ** 2)
    if t < T - 1:
        value += lam2 / 2 * np.sum((left[t + 1] @ right[t + 1].T - product) ** 2)
    return float(value)


def quadratic_argmin(func, shape):
    """Minimize an exactly quadratic function by probing it on a basis.

    Reconstructs the Hessian and gradient from function values alone
    (exact for quadratics up to rounding) and solves the normal equations.
    """
    dim = int(np.prod(shape))
    zero = np.zeros(dim)
    f0 = func(zero.reshape(shape))
    f_unit = np.empty(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        f_unit[i] = func(e.reshape(shape))
    hessian = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            e = np.zeros(dim)
            e[i] += 1.0
            e[j] += 1.0
            f_pair = func(e.reshape(shape))
            hessian[i, j] = hessian[j, i] = f_pair - f_unit[i] - f_unit[j] + f0
    gradient = f_unit - f0 - 0.5 * np.diag(hessian)
    return np.linalg.solve(hessian, -gradient).reshape(shape)


def softimpute_als_reference(frame, mask, lam1, left0, right0, sweeps):
    """Plain alternating ridge completion of one matrix.

    Each half-step refreshes the filled-in matrix with the newest factors
    and solves the ridge normal equations directly. Returns the list of
    (left, right) iterates after each sweep.
    """
    left = left0.copy()
    right = right0.copy()
    r = left.shape[1]
    history = []
    for _ in range(sweeps):
        filled = np.where(mask, frame, left @ right.T)
        left = np.linalg.solve(right.T @ right + lam1 * np.eye(r), right.T @ filled.T).T
        filled = np.where(mask, frame, left @ right.T)
        right = np.linalg.solve(left.T @ left + lam1 * np.eye(r), left.T @ filled).T
        history.append((left.copy(), right.copy()))
    return history


def weighted_label(t, left, right, video, aux, cfg):
    """Composite regression target for updating frame t's factors.

    Blends the filled-in frame, the lambda2-weighted neighbor imputations,
    and the lambda3-weighted auxiliary frame, all evaluated at the factor
    values currently stored in ``left``/``right``. Mid-sweep those arrays
    hold already-updated factors for earlier frames and pre-update factors
    for later ones, which is exactly what the cyclic scheme requires.

    The package's updates never form this m-by-n label; it is the explicit
    reference for the right-hand side they build from r-by-r Grams.
    """
    label = np.where(video.masks[t], video.frames[t], left[t] @ right[t].T)
    if cfg.lambda2 != 0.0:
        for s in (t - 1, t + 1):
            if 0 <= s < left.shape[0]:
                label += cfg.lambda2 * (left[s] @ right[s].T)
    if cfg.lambda3 != 0.0:
        label += cfg.lambda3 * aux.frames[t]
    return label


def cyclic_sweep_literal(frames, masks, aux, left, right, lam1, lam2, lam3):
    """One cyclic sweep written out with explicit m-by-n labels.

    Left factors t = 0..T-1, then right factors t = 0..T-1. Each update
    forms its label from the factors as they stand at that moment (filled
    frame + lam2 * neighbor products + lam3 * auxiliary frame) and solves
    the ridge normal equations directly. Returns new (left, right) arrays.
    """
    left = left.copy()
    right = right.copy()
    T, _, r = left.shape
    for side in ("left", "right"):
        for t in range(T):
            label = np.where(masks[t], frames[t], left[t] @ right[t].T)
            neighbors = 0
            for s in (t - 1, t + 1):
                if 0 <= s < T:
                    label = label + lam2 * (left[s] @ right[s].T)
                    neighbors += 1
            if aux is not None:
                label = label + lam3 * aux[t]
            weight = 1.0 + lam2 * neighbors + lam3
            if side == "left":
                design, target = right[t], label
            else:
                design, target = left[t], label.T
            normal = weight * (design.T @ design) + lam1 * np.eye(r)
            solution = np.linalg.solve(normal, design.T @ target.T).T
            if side == "left":
                left[t] = solution
            else:
                right[t] = solution
    return left, right


def finalize_projector_literal(left, right, frame, mask, shrinkage):
    """Terminal stage from the orthogonal projector onto span(right).

    The filled frame is projected onto the column space of ``right`` with
    an explicit pseudo-inverse projector, and the full SVD of the m-by-n
    projection is soft-thresholded; singular values at or below
    ``shrinkage`` drop out of the effective rank.
    """
    filled = np.where(mask, frame, left @ right.T)
    projector = right @ np.linalg.pinv(right)
    u, sigma, vt = np.linalg.svd(filled @ projector, full_matrices=False)
    kept = np.maximum(sigma - shrinkage, 0.0)
    return (u * kept) @ vt, int((sigma > shrinkage).sum())


def finalize_literal(left, right, frame, mask, shrinkage):
    """Step-by-step transcription of the terminal SVD / soft-threshold stage."""
    product = left @ right.T
    filled = np.where(mask, frame, product)
    _, _, vt = np.linalg.svd(product, full_matrices=False)
    v = vt[: left.shape[1]].T
    projected = filled @ v
    u, sigma, rt = np.linalg.svd(projected, full_matrices=False)
    sigma = np.maximum(sigma - shrinkage, 0.0)
    return (u * sigma) @ (rt @ v.T), int((sigma > 0).sum())


def _real_sph_harm(l, m, theta, phi):
    """Real orthonormal harmonic via scipy's complex routine (geodesy sign), elementwise."""
    import scipy.special as sp

    try:
        complex_value = sp.sph_harm_y(l, abs(m), theta, phi)
    except AttributeError:
        complex_value = sp.sph_harm(abs(m), l, phi, theta)
    if m == 0:
        return np.real(complex_value)
    if m > 0:
        return np.sqrt(2.0) * (-1.0) ** m * np.real(complex_value)
    return np.sqrt(2.0) * (-1.0) ** m * np.imag(complex_value)


def real_sph_harm_scipy(l, m, theta, phi):
    """Real orthonormal harmonic at one point, from scipy."""
    return float(_real_sph_harm(l, m, theta, phi))


def render(model, grid, clamp_negative=True):
    """A truncated expansion evaluated on a whole grid from scipy's harmonics.

    ``model.coeffs`` is degree-major with m = -l..l inside a degree; negative
    values clamp to 0 by default, as the auxiliary video's render does.
    """
    theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    values = np.zeros(theta.shape)
    index = 0
    for l in range(model.l_max + 1):
        for m in range(-l, l + 1):
            values += model.coeffs[index] * _real_sph_harm(l, m, theta, phi)
            index += 1
    return np.maximum(values, 0.0) if clamp_negative else values


def sh_ridge_fit(design, frames, masks, v):
    """Ridge coefficients of T masked frames from a dense design, as a (T, K) array.

    ``design`` is the (cells, K) matrix of ``vista.spherical.basis_matrix``.
    Each frame's normal equations are formed from its observed rows alone:
    ``(D_obs' D_obs + v I) c = D_obs' x_obs``.
    """
    coeffs = np.empty((len(frames), design.shape[1]))
    for t, (frame, mask) in enumerate(zip(frames, masks)):
        rows = design[np.asarray(mask).ravel()]
        gram = rows.T @ rows + v * np.eye(design.shape[1])
        coeffs[t] = np.linalg.solve(gram, rows.T @ np.asarray(frame)[mask])
    return coeffs


def sh_auxiliary(design, frames, masks, v):
    """The auxiliary video from the dense fit: render each frame and clamp it at 0."""
    coeffs = sh_ridge_fit(design, frames, masks, v)
    rendered = (coeffs @ design.T).reshape(np.shape(frames))
    return np.maximum(rendered, 0.0)


def mse(truth, imputed, mask):
    """Mean squared residual over the mask's pixels, by an explicit loop."""
    total, count = 0.0, 0
    for i, j in zip(*np.nonzero(mask)):
        total += (imputed[i, j] - truth[i, j]) ** 2
        count += 1
    return total / count


def boxcox(values, lam):
    """Out-of-place power transform (y**lam - 1)/lam, natural log at lam = 0."""
    y = np.array(values, dtype=float)
    if lam == 0.0:
        return np.log(y)
    return (np.power(y, lam) - 1.0) / lam


def pooled_moments(video, aux, lam, offset=1e-3):
    """Mean and std of the power-transformed pooled pixels, from per-frame sums.

    Each frame's pooled pixels (a video frame's observed ones, then each whole
    auxiliary frame) are summed by numpy; the frame sums, and then the sums of
    the squared deviations, are added one by one in frame order.
    """
    parts = [boxcox(frame[mask] + offset, lam) for frame, mask in zip(video.frames, video.masks)]
    if aux is not None:
        parts += [boxcox(frame.ravel() + offset, lam) for frame in aux.frames]
    count = sum(part.size for part in parts)
    total = 0.0
    for part in parts:
        total += float(np.sum(part))
    mean = total / count
    squares = 0.0
    for part in parts:
        squares += float(np.sum(np.square(part - mean)))
    return mean, math.sqrt(squares / count)


def boxcox_inverse(values, lam):
    """Out-of-place inverse power transform, clamped at the domain boundary.

    Returns (array, count of values outside the domain).
    """
    x = np.array(values, dtype=float)
    if lam == 0.0:
        return np.exp(x), 0
    argument = lam * x + 1.0
    clamped = int(np.sum(argument <= 0))
    floor = 0.0 if lam > 0 else np.finfo(float).tiny
    return np.power(np.where(argument > floor, argument, floor), 1.0 / lam), clamped


def demo_video_einsum(m, n, frames, seed, bump_amplitude=16.0, bump_sigma=8.0, degree_cap=6):
    """``synthetic.make_demo_video`` as one three-operand ``einsum`` over the whole video,
    then the bump added frame by frame; no parameter check."""
    from vista.missingness import default_bbox, perimeter_path
    from vista.synthetic import _bandlimited

    rng = np.random.default_rng(seed)
    lat = 90.0 - 180.0 * (np.arange(m) + 0.5) / m
    theta = np.pi * (np.arange(m) + 0.5) / m
    azimuth = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    row_profiles = np.stack([
        _bandlimited(np.exp(-(lat / 38.0) ** 2), theta, 0, degree_cap),
        _bandlimited(np.exp(-((lat - 8.0) / 22.0) ** 2), theta, 1, degree_cap),
        _bandlimited(np.exp(-((lat - 55.0) / 14.0) ** 2)
                     + np.exp(-((lat + 55.0) / 14.0) ** 2), theta, 2, degree_cap),
        np.ones(m),
    ])
    col_profiles = np.stack([
        np.ones(n),
        np.cos(azimuth - 2.0 * np.pi * 13.0 / 24.0),
        np.cos(2.0 * (azimuth - 2.0 * np.pi * 12.0 / 24.0)),
        np.ones(n),
    ])
    t_grid = np.arange(frames)
    weights = np.stack([
        22.0 * (1.0 + 0.15 * np.sin(2.0 * np.pi * t_grid / frames)),
        13.0 * (1.0 + 0.20 * np.cos(2.0 * np.pi * t_grid / frames + 0.7)),
        4.0 * np.ones(frames),
        10.0 * np.ones(frames),
    ])
    video = np.einsum("kt,km,kn->tmn", weights, row_profiles, col_profiles)
    r0, r1, c0, c1 = default_bbox(m, n)
    inset = max(0, min(6, (r1 - r0 - 1) // 2, (c1 - c0 - 1) // 2))
    path = perimeter_path((r0 + inset, r1 - inset, c0 + inset, c1 - inset))
    start = int(rng.integers(len(path)))
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    for t in range(frames):
        ci, cj = path[(start + 6 * t) % len(path)]
        col_dist = np.minimum(np.abs(cols - cj), n - np.abs(cols - cj))
        dist2 = (rows - ci) ** 2 + col_dist ** 2
        video[t] += bump_amplitude * np.exp(-dist2 / (2.0 * bump_sigma ** 2))
    return video
