"""Batched Stage-3 core: Alg. 3 vectorized over a leading config axis.

The Stage-3 subproblem (Problem P6, Eq. 28 — the convex program obtained
from P5 by the quadratic transform at fixed ``z``) is solved by a
primal-dual interior-point method with Mehrotra's predictor-corrector
(Mehrotra 1992, *SIAM J. Optim.* 2(4); Wright, *Primal-Dual Interior-Point
Methods*, 1997), in NumPy with a leading batch axis of ``K`` configs.

Variables are the scaled ``(p, b~, f_c~, f_s~, T~)`` (W, MHz, GHz, ks).
Every inequality row ``g_i(x) ≥ 0`` — ``n`` delay rows
``σ_n = T~ − delay_n / T_SCALE``, the bandwidth and CPU budgets, and the
box bounds — has a slack ``s_i > 0`` with ``g_i(x) = s_i`` at convergence
and a dual ``λ_i > 0``.  An iteration evaluates residuals and derivatives
once, factors the Newton system once, and solves it twice: the affine
predictor, then the corrector centred at ``σμ`` with Mehrotra's
``σ = (μ_aff/μ)³``, floored at a fraction of the primal and dual residuals
so complementarity cannot race ahead of them.  The step is the common
fraction-to-boundary step of ``s`` and ``λ``, halved by a merit safeguard
while it fails to decrease the summed KKT error or leaves the domain.

The Newton matrix ``∇²L + Gᵀ diag(λ/s) G`` has arrow structure: per-client
4×4 blocks over ``(p_n, b_n, f_c_n, f_s_n)``, one shared ``T`` column (every
delay row touches ``T``), and two rank-one budget terms.
:func:`factor_arrow` inverts the ``(K, n, 4, 4)`` blocks and couples the
rest through a 3×3 capacitance system; :func:`solve_arrow` reuses that
factorisation for predictor and corrector, so a step costs ``O(n)`` per
config.

Alg. 3: ``z`` enters only the objective, so after each closed-form Eq. 25
``z`` update the next round starts from the previous round's primal-dual
point (see :func:`_solve_round` for the complementarity reset) instead of
a cold start.  Every round ends once its KKT residuals are within
``gap_tol``, so the recorded objective history keeps the monotone
improvement of the alternation and the transform gap traces tightness as
in the scalar SLSQP formulation.  A config freezes once its P5 objective
moves by less than its own ε; the others continue on a shrinking active
set.  Inside a round, configs within tolerance take zero steps, so no
config's iterates depend on its batch companions.

The scalar :class:`~repro.core.stage3.Stage3Solver` delegates here with
``K = 1``, so batched and scalar paths execute the *same* floating-point
algorithm — the basis of the batched ≡ scalar contract
(``tests/core/test_batched.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import faults as _faults
from repro.errors import SolverError

#: Internal unit scales shared with :mod:`repro.core.stage3` (SI = scaled × S).
B_SCALE = 1e6   # bandwidth in MHz
F_SCALE = 1e9   # frequencies in GHz
T_SCALE = 1e3   # delay bound in ks

_LN2 = float(np.log(2.0))
#: SI value of a client's scaled ``(p, b~, f_c~, f_s~)`` per unit.
_SI_UNITS = np.array([1.0, B_SCALE, F_SCALE, F_SCALE])

#: Iteration cap per alternation round; fraction-to-boundary factor; the
#: share of the primal/dual residual below which the centring target may not
#: fall; how many step halvings must decrease the KKT error before any
#: finite trial point is accepted; and the cap on halvings overall.
_MAX_ITERATIONS = 80
_TAU = 0.995
_RESIDUAL_CENTRING = 0.01
_MERIT_TRIES = 2
_MAX_HALVINGS = 60

#: Entries of a client's 4×4 block fed by the five distinct Hessian entries
#: ``(pp, pb, bb, cc, ss)``, and which of those entries lie on the diagonal.
_ROWS = np.array([0, 0, 1, 1, 2, 3])
_COLS = np.array([0, 1, 0, 1, 2, 3])
_SRC = np.array([0, 1, 1, 2, 3, 4])
_ON_DIAG = np.array([0, 3, 4, 5])


@dataclass(frozen=True)
class Stage3Constants:
    """Per-batch constants of the Stage-3 block, stacked ``(K, n)`` / ``(K, 1)``.

    Built once per batch by :func:`stack_stage3_constants`; ``cycles`` (which
    depends on the Stage-2 ``λ``) is passed per solve instead.
    """

    d_tr: np.ndarray        # (K, n) upload bits
    gains: np.ndarray       # (K, n) channel gains
    noise_psd: np.ndarray   # (K, 1)
    kappa_c: np.ndarray     # (K, n) client switched capacitance
    enc_cycles: np.ndarray  # (K, n) encryption cycles
    kappa_s: np.ndarray     # (K, 1) server switched capacitance
    p_max: np.ndarray       # (K, n)
    fc_max: np.ndarray      # (K, n)
    b_total: np.ndarray     # (K, 1)
    fs_total: np.ndarray    # (K, 1)
    alpha_e: np.ndarray     # (K, 1)
    alpha_t: np.ndarray     # (K, 1)
    tolerance: np.ndarray   # (K,)  solution accuracy ε per config

    @property
    def batch(self) -> int:
        return self.d_tr.shape[0]

    @property
    def n(self) -> int:
        return self.d_tr.shape[1]

    def subset(self, index: np.ndarray) -> "Stage3Constants":
        """The constants of the configs selected by an index array."""
        return Stage3Constants(
            **{
                name: getattr(self, name)[index]
                for name in self.__dataclass_fields__
            }
        )


def stack_stage3_constants(configs: Sequence) -> Stage3Constants:
    """Stack the Stage-3 constants of ``configs`` (equal ``num_clients``).

    A columnar :class:`~repro.core.batch.ConfigBatch` already holds these
    columns contiguously, so it short-circuits to zero-copy views instead of
    re-stacking per-config objects.
    """
    if hasattr(configs, "stage3_constants"):
        return configs.stage3_constants()
    n = {cfg.num_clients for cfg in configs}
    if len(n) != 1:
        raise ValueError(f"configs must share num_clients, got {sorted(n)}")
    return Stage3Constants(
        d_tr=np.stack([cfg.upload_bits for cfg in configs]).astype(float),
        gains=np.stack([cfg.channel_gains for cfg in configs]).astype(float),
        noise_psd=np.array([[cfg.noise_psd] for cfg in configs], dtype=float),
        kappa_c=np.stack([cfg.client_capacitance for cfg in configs]).astype(float),
        enc_cycles=np.stack([cfg.encryption_cycles for cfg in configs]).astype(float),
        kappa_s=np.array(
            [[cfg.server.switched_capacitance] for cfg in configs], dtype=float
        ),
        p_max=np.stack([cfg.max_power for cfg in configs]).astype(float),
        fc_max=np.stack([cfg.client_max_frequency for cfg in configs]).astype(float),
        b_total=np.array(
            [[cfg.server.total_bandwidth_hz] for cfg in configs], dtype=float
        ),
        fs_total=np.array(
            [[cfg.server.total_frequency_hz] for cfg in configs], dtype=float
        ),
        alpha_e=np.array([[cfg.alpha_e] for cfg in configs], dtype=float),
        alpha_t=np.array([[cfg.alpha_t] for cfg in configs], dtype=float),
        tolerance=np.array([cfg.tolerance for cfg in configs], dtype=float),
    )


@dataclass
class Stage3BatchResult:
    """Outcome of the batched Alg. 3 for every config in the batch.

    The ``kkt_*`` columns certify each config's final round (the last
    fixed-``z`` subproblem), all in objective units: ``kkt_primal`` is the
    largest row residual ``|g_i(x) − s_i|`` priced at ``λ_i + α_t·T_SCALE``
    (what restoring that row would cost), ``kkt_complementarity`` the
    duality gap ``Σ s_i λ_i``, and ``kkt_stationarity`` the largest
    ``|∂L/∂x_j · x_j|`` over the scaled variables.  A config is
    ``converged`` only if the alternation settled *and* all three are
    within its ``gap_tol`` (the column of that name).
    ``newton_iterations`` counts the primal-dual iterations (one Newton
    factorisation each) over all rounds.
    """

    p: np.ndarray           # (K, n)
    b: np.ndarray           # (K, n)
    f_c: np.ndarray         # (K, n)
    f_s: np.ndarray         # (K, n)
    T: np.ndarray           # (K,) exact max delay (Eq. 23 tightening)
    value: np.ndarray       # (K,) final P5 objective
    outer_iterations: np.ndarray      # (K,) int
    converged: np.ndarray             # (K,) bool
    newton_iterations: np.ndarray     # (K,) int
    kkt_primal: np.ndarray            # (K,)
    kkt_complementarity: np.ndarray   # (K,)
    kkt_stationarity: np.ndarray      # (K,)
    gap_tol: np.ndarray               # (K,) KKT tolerance of every round
    histories: List[List[float]] = field(default_factory=list)       # per config
    transform_gaps: List[List[float]] = field(default_factory=list)  # per config


# -- elementary pieces ---------------------------------------------------------


def _rates(con: Stage3Constants, p: np.ndarray, b: np.ndarray) -> np.ndarray:
    snr = p * con.gains / (con.noise_psd * b)
    return b * np.log2(1.0 + snr)


def _delays(con: Stage3Constants, cycles, p, b, f_c, f_s) -> np.ndarray:
    r = _rates(con, p, b)
    return con.enc_cycles / f_c + con.d_tr / r + cycles / f_s


def _p5_value(con: Stage3Constants, cycles, p, b, f_c, f_s) -> np.ndarray:
    """The (maximisation) Problem-P5 objective per config, T = max delay."""
    r = _rates(con, p, b)
    e = (
        con.kappa_c * con.enc_cycles * f_c**2
        + con.kappa_s * cycles * f_s**2
        + p * con.d_tr / r
    )
    delays = con.enc_cycles / f_c + con.d_tr / r + cycles / f_s
    return -(
        con.alpha_e[:, 0] * np.sum(e, axis=-1)
        + con.alpha_t[:, 0] * np.max(delays, axis=-1)
    )


def strict_interior_start(con: Stage3Constants, cycles, p, b, f_c, f_s):
    """Clip an allocation into the strict interior of the feasible set.

    Mirrors the legacy SLSQP preparation (clip to boxes, rescale into the
    budgets) and then pulls every quantity strictly inside — the
    interior-point iterates need positive slack on every row, bounds
    included.
    """
    p = np.clip(p, 1.0001e-4 * con.p_max, (1.0 - 1e-7) * con.p_max)
    b = np.clip(b, 1.0001e-3 * B_SCALE, None)
    scale_b = np.sum(b, axis=-1, keepdims=True) / (0.995 * con.b_total)
    b = b / np.maximum(scale_b, 1.0)
    f_c = np.clip(f_c, 1.0001e-3 * F_SCALE, (1.0 - 1e-7) * con.fc_max)
    f_s = np.clip(f_s, 1.0001e-3 * F_SCALE, None)
    scale_f = np.sum(f_s, axis=-1, keepdims=True) / (0.995 * con.fs_total)
    f_s = f_s / np.maximum(scale_f, 1.0)
    delays = _delays(con, cycles, p, b, f_c, f_s)
    t = np.max(delays, axis=-1) * (1.0 + 1e-6) + 1e-9
    return p, b, f_c, f_s, t


# -- the arrow-structured Newton solve ----------------------------------------


def _ridge_cholesky(blocks: np.ndarray) -> np.ndarray:
    """Cholesky factors of SPD blocks, ridging only the blocks that fail.

    Escalates a ``1e-12·I`` ridge by 100× up to eight times per failing
    block (the blocks are Jacobi-scaled, so the ridge is relative); the
    other blocks are factored untouched, so a near-singular block never
    perturbs its batch companions.
    """
    flat = blocks.reshape((-1,) + blocks.shape[-2:])
    chol = np.empty_like(flat)
    eye = np.eye(flat.shape[-1])
    for i, block in enumerate(flat):
        ridge = 0.0
        for _ in range(9):
            try:
                chol[i] = np.linalg.cholesky(block + ridge * eye)
                break
            except np.linalg.LinAlgError as exc:
                last = exc
                ridge = 1e-12 if ridge == 0.0 else ridge * 100.0
        else:
            raise SolverError(
                "stage-3 Newton system is singular after ridge escalation"
            ) from last
    return chol.reshape(blocks.shape)


def factor_arrow(
    blocks: np.ndarray,
    jac: np.ndarray,
    delay_inv: np.ndarray,
    budget_inv: np.ndarray,
):
    """Factor the arrow-structured Newton matrix of Problem P6.

    The matrix acts on ``(dv, dT)`` with ``dv`` of shape ``(K, n, 4)``::

        blockdiag(blocks) + Σ_n D_n (u_n, 1)(u_n, 1)ᵀ
                          + D_b 1_b 1_bᵀ + D_f 1_f 1_fᵀ

    with ``blocks`` ``(K, n, 4, 4)`` SPD, ``u_n = jac[:, n]`` (each delay
    row couples one client's four variables and the shared ``T``),
    ``1_b`` / ``1_f`` selecting component 1 / 3 of every client, and the
    weights passed as inverses: ``delay_inv = 1/D`` ``(K, n)``,
    ``budget_inv = (1/D_b, 1/D_f)`` ``(K, 2)``.  The rank-one terms stay
    out of the blocks: each block is inverted alone (Jacobi-scaled
    Cholesky), each delay row is folded in by a scalar Sherman-Morrison
    factor ``γ_n = 1/(u_nᵀ B_n⁻¹ u_n + 1/D_n)``, and the two budget
    directions and ``T`` meet in a 3×3 capacitance system.  ``γ_n`` and
    the ``T`` entry ``−Σ γ_n`` are sums of positive terms, so they do not
    cancel when a delay row's weight grows without bound at an active
    constraint (folding ``D_n u_n u_nᵀ`` into the blocks would).
    """
    diag = np.diagonal(blocks, axis1=-2, axis2=-1)
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    outer = scale[..., :, None] * scale[..., None, :]
    scaled = blocks * outer
    try:
        chol = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        chol = _ridge_cholesky(scaled)
    inv_chol = np.linalg.inv(chol)
    inverse = (np.swapaxes(inv_chol, -1, -2) @ inv_chol) * outer
    kappa = (inverse @ jac[..., None])[..., 0]                 # B⁻¹u  (K, n, 4)
    gamma = 1.0 / (np.add.reduce(jac * kappa, axis=-1) + delay_inv)  # (K, n)
    # Budget columns of B⁻¹ − γ κκᵀ, then the T column, summed over clients.
    gk = gamma[..., None] * kappa[..., 1::2]                   # (K, n, 2)
    cap = np.empty((jac.shape[0], 3, 3))
    cap[:, :2, :2] = np.add.reduce(
        inverse[..., 1::2, 1::2] - gk[..., :, None] * kappa[..., None, 1::2],
        axis=1,
    )
    cap[:, (0, 1), (0, 1)] += budget_inv
    cap[:, :2, 2] = cap[:, 2, :2] = np.add.reduce(gk, axis=1)
    cap[:, 2, 2] = -np.add.reduce(gamma, axis=1)
    try:
        cap_inv = np.linalg.inv(cap)
    except np.linalg.LinAlgError as exc:
        raise SolverError("stage-3 capacitance system is singular") from exc
    return inverse, jac, kappa, gamma, cap_inv


def solve_arrow(factor, rhs_v: np.ndarray, rhs_t: np.ndarray):
    """Solve the factored arrow system for ``(dv (K, n, 4), dT (K,))``."""
    inverse, jac, kappa, gamma, cap_inv = factor
    q = (inverse @ rhs_v[..., None])[..., 0]                   # (K, n, 4)
    grho = gamma * np.add.reduce(jac * q, axis=-1)             # (K, n)
    low = np.empty((q.shape[0], 3, 1))
    low[:, :2, 0] = np.add.reduce(
        q[..., 1::2] - kappa[..., 1::2] * grho[..., None], axis=1
    )
    low[:, 2, 0] = np.add.reduce(grho, axis=1) - rhs_t
    h = cap_inv @ low                                          # (h_b, h_f, dT)
    hb = h[:, None, :2]                                        # (K, 1, 2, 1)
    zeta = grho + gamma * (h[:, 2] - (kappa[..., None, 1::2] @ hb)[..., 0, 0])
    dv = q - kappa * zeta[..., None] - (inverse[..., :, 1::2] @ hb)[..., 0]
    return dv, h[:, 2, 0]


# -- Problem P6 and its primal-dual iteration ----------------------------------


class _P6:
    """One batched instance of Problem P6; ``z`` is updated between rounds.

    Client variables are held as ``v`` ``(K, n, 4)`` = ``(p, b~, f_c~,
    f_s~)`` per client and ``T~`` as ``t`` ``(K,)``.  Constraint rows, in
    order: ``n`` delay rows, the two budgets, then the ``4n`` lower and
    ``4n`` upper box rows of ``v`` in client-major order (``T`` is free:
    the delay rows bound it below).
    """

    def __init__(self, con: Stage3Constants, cycles: np.ndarray, z: np.ndarray):
        self.con = con
        self.cycles = cycles
        self.n = n = con.n
        self.m = 9 * n + 2
        self.ae = con.alpha_e
        self.at = con.alpha_t[:, 0] * T_SCALE
        self.c_snr = con.gains / con.noise_psd
        cycles_fc_fs = np.stack([con.enc_cycles, cycles], axis=-1)
        # Energy κ·C·f² and delay C/f of (f_c, f_s) in scaled GHz / ks units.
        self.e_coef = (
            np.stack([con.kappa_c * con.enc_cycles, con.kappa_s * cycles], axis=-1)
            * F_SCALE**2
        )
        self.d_coef = cycles_fc_fs / (F_SCALE * T_SCALE)
        self.h_cs = 2.0 * self.ae[:, :, None] * self.e_coef
        ones = np.full_like(con.p_max, 1e-3)
        self.lb = np.stack([1e-4 * con.p_max, ones, ones, ones], axis=-1)
        self.ub = np.stack(
            [
                con.p_max,
                np.broadcast_to(con.b_total / B_SCALE, con.p_max.shape),
                con.fc_max / F_SCALE,
                np.broadcast_to(con.fs_total / F_SCALE, con.p_max.shape),
            ],
            axis=-1,
        )
        self.caps = np.concatenate(
            [con.b_total / B_SCALE, con.fs_total / F_SCALE], axis=1
        )
        self.z = z

    @property
    def z(self) -> np.ndarray:
        return self._z

    @z.setter
    def z(self, z: np.ndarray) -> None:
        self._z = z
        self._d2z = self.con.d_tr**2 * z
        self._half_inv_z = 0.5 / z

    def select(self, index: np.ndarray) -> "_P6":
        """A sub-batch (used when configs converge at different rounds)."""
        return _P6(self.con.subset(index), self.cycles[index], self.z[index])

    def evaluate(self, v: np.ndarray, t: np.ndarray):
        """Objective, derivatives and constraint rows at ``(v, t)``.

        Returns ``(f0, grad, h_obj, h_sig, jac, g)``: the P6 objective
        ``(K,)``; its gradient wrt ``v`` ``(K, n, 4)`` (wrt ``t`` it is
        ``self.at``); the five distinct Hessian entries ``(pp, pb, bb, cc,
        ss)`` of the objective and of each delay row ``(K, n, 5)``; the
        delay-row gradients wrt ``v`` ``(K, n, 4)`` (wrt ``t`` they are 1);
        and every constraint row ``(K, m)``.
        """
        c, d, d2z, hz = self.c_snr, self.con.d_tr, self._d2z, self._half_inv_z
        p, cs = v[..., 0], v[..., 2:]
        b = v[..., 1] * B_SCALE
        snr = c * p / b
        onep = 1.0 + snr
        log_term = np.log2(onep)
        inv_r = 1.0 / (b * log_term)
        inv_r2 = inv_r * inv_r
        # Shannon-rate partials wrt (p, b~).
        k1 = 1.0 / (_LN2 * onep)
        k2 = B_SCALE * k1 / (b * onep)
        r_p = c * k1
        r_b = (log_term - snr * k1) * B_SCALE
        r_pp = -c * c * k2 / B_SCALE
        r_pb = c * snr * k2
        r_bb = -snr * snr * k2 * B_SCALE
        # Transmission term (p d)² z + 1/(4 r² z) and its r-derivatives.
        q_p = -hz * inv_r2 * inv_r
        q_pp = 3.0 * hz * inv_r2 * inv_r2
        inv_cs = 1.0 / cs
        e_cs = self.e_coef * cs
        f0 = self.ae[:, 0] * (
            np.add.reduce(e_cs * cs, axis=(1, 2))
            + np.add.reduce(d2z * p * p + 0.5 * hz * inv_r2, axis=1)
        ) + self.at * t
        ae = self.ae
        grad = np.empty(v.shape)
        grad[..., 0] = ae * (2.0 * d2z * p + q_p * r_p)
        grad[..., 1] = ae * (q_p * r_b)
        grad[..., 2:] = (2.0 * ae[:, :, None]) * e_cs
        h_obj = np.empty(v.shape[:2] + (5,))
        h_obj[..., 0] = ae * (2.0 * d2z + q_pp * r_p * r_p + q_p * r_pp)
        h_obj[..., 1] = ae * (q_pp * r_p * r_b + q_p * r_pb)
        h_obj[..., 2] = ae * (q_pp * r_b * r_b + q_p * r_bb)
        h_obj[..., 3:] = self.h_cs
        # Delay rows σ_n = T~ − delay_n / T_SCALE.
        dr2 = d * inv_r2 / T_SCALE
        dr3 = 2.0 * dr2 * inv_r
        dcs = self.d_coef * inv_cs
        jac = np.empty(v.shape)
        jac[..., 0] = dr2 * r_p
        jac[..., 1] = dr2 * r_b
        jac[..., 2:] = dcs * inv_cs
        h_sig = np.empty(v.shape[:2] + (5,))
        h_sig[..., 0] = dr2 * r_pp - dr3 * r_p * r_p
        h_sig[..., 1] = dr2 * r_pb - dr3 * r_p * r_b
        h_sig[..., 2] = dr2 * r_bb - dr3 * r_b * r_b
        h_sig[..., 3:] = -2.0 * jac[..., 2:] * inv_cs
        k, n = v.shape[:2]
        g = np.empty((k, self.m))
        g[:, :n] = t[:, None] - d * inv_r / T_SCALE - np.add.reduce(dcs, axis=2)
        g[:, n:n + 2] = self.caps - np.add.reduce(v[..., 1::2], axis=1)
        g[:, n + 2:5 * n + 2] = (v - self.lb).reshape(k, -1)
        g[:, 5 * n + 2:] = (self.ub - v).reshape(k, -1)
        return f0, grad, h_obj, h_sig, jac, g


def _max_step(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Fraction-to-boundary step: ``x + α dx ≥ (1 − τ) x``, ``α ≤ 1``."""
    return _TAU / np.maximum(np.maximum.reduce(-dx / x, axis=1), _TAU)


def _residuals(prob: _P6, state, v, t, s, lam):
    """KKT residuals at a primal-dual point.

    Returns ``(r_p, rd_v, rd_t, comp, kkt)`` with ``r_p = g − s``, the
    Lagrangian gradient ``∇f − Gᵀλ`` wrt ``v`` and ``t``, the products
    ``s∘λ`` and ``kkt`` ``(3, K)`` = (primal, complementarity,
    stationarity) in objective units (see :class:`Stage3BatchResult`).
    """
    _, grad, _, _, jac, g = state
    k, n = v.shape[:2]
    nr, nb = n + 2, 5 * n + 2
    y = lam[:, :n]
    rd_v = (
        grad - y[..., None] * jac
        - lam[:, nr:nb].reshape(v.shape) + lam[:, nb:].reshape(v.shape)
    )
    rd_v[..., 1::2] += lam[:, None, n:nr]
    rd_t = prob.at - np.add.reduce(y, axis=1)
    r_p = g - s
    comp = s * lam
    kkt = np.empty((3, k))
    kkt[0] = np.maximum.reduce(np.abs(r_p) * (lam + prob.at[:, None]), axis=1)
    kkt[1] = np.add.reduce(comp, axis=1)
    kkt[2] = np.maximum(
        np.maximum.reduce(np.abs(rd_v * v).reshape(k, -1), axis=1),
        np.abs(rd_t * t),
    )
    return r_p, rd_v, rd_t, comp, kkt


def _solve_round(prob: _P6, v, t, s, lam, gap_tol, iterations, warm: bool):
    """Mehrotra predictor-corrector on one fixed-``z`` P6 subproblem.

    Iterates until every config's three KKT residuals are within its
    ``gap_tol`` (or the iteration cap); configs already within take zero
    steps.  ``iterations`` ``(K,)`` is incremented per config in place.
    A ``warm`` round first resets complementarity: the new ``z`` moved the
    optimum, so the duals of box rows that are clearly inactive (slack ≥
    10% of the variable) are lifted to ``μ_r / s`` with ``μ_r`` the
    stationarity error per row.  Without that their tiny barrier
    curvature lets a flat variable (``f_c`` barely moves the objective)
    take a huge Newton step that the fraction-to-boundary rule then cuts
    for every variable.  Returns the new ``(v, t, s, lam)`` and the KKT
    residuals ``(3, K)`` there.
    """
    k, n, m = v.shape[0], prob.n, prob.m
    nr, nb = n + 2, 5 * n + 2
    shape = v.shape
    state = prob.evaluate(v, t)
    r_p, rd_v, rd_t, comp, kkt = _residuals(prob, state, v, t, s, lam)
    if warm:
        mu_r = kkt[2] / m
        value = np.abs(v).reshape(k, -1)
        box = s[:, nr:]
        inactive = box >= 0.1 * np.concatenate([value, value], axis=1)
        lam = lam.copy()
        lam[:, nr:] = np.where(
            inactive, np.maximum(lam[:, nr:], mu_r[:, None] / box), lam[:, nr:]
        )
        r_p, rd_v, rd_t, comp, kkt = _residuals(prob, state, v, t, s, lam)
    for _ in range(_MAX_ITERATIONS):
        active = np.logical_or.reduce(kkt > gap_tol, axis=0)
        if not active.any():
            break
        iterations += active
        _, _, h_obj, h_sig, jac, _ = state
        # Newton matrix ∇²L + Gᵀ diag(λ/s) G in arrow form: the box rows
        # add to the block diagonals, delay and budget rows stay rank-one.
        ratio = lam / s
        entries = (h_obj - lam[:, :n, None] * h_sig)[..., _SRC]
        entries[..., _ON_DIAG] += (ratio[:, nr:nb] + ratio[:, nb:]).reshape(shape)
        blocks = np.zeros(shape + (4,))
        blocks[..., _ROWS, _COLS] = entries
        inv_ratio = s / lam
        factor = factor_arrow(blocks, jac, inv_ratio[:, :n], inv_ratio[:, n:nr])

        def direction(r_c):
            # Reduced right-hand side −r_d − Gᵀ((r_c + λ∘r_p)/s), then the
            # slack and dual steps recovered from dv, dt.
            q = (r_c + lam * r_p) / s
            rhs_v = (
                -rd_v - q[:, :n, None] * jac
                - q[:, nr:nb].reshape(shape) + q[:, nb:].reshape(shape)
            )
            rhs_v[..., 1::2] += q[:, None, n:nr]
            dv, dt = solve_arrow(
                factor, rhs_v, -rd_t - np.add.reduce(q[:, :n], axis=1)
            )
            flat = dv.reshape(k, -1)
            ds = np.empty((k, m))
            ds[:, :n] = np.add.reduce(jac * dv, axis=2) + dt[:, None]
            ds[:, n:nr] = -np.add.reduce(dv[..., 1::2], axis=1)
            ds[:, nr:nb] = flat
            ds[:, nb:] = -flat
            ds += r_p
            return dv, dt, ds, -(r_c + lam * ds) / s

        # Predictor (affine scaling), then Mehrotra's centred corrector.
        # The centring target never drops below a fraction of the primal
        # and dual residuals, so complementarity cannot race ahead of them.
        _, _, ds_a, dl_a = direction(comp)
        a_p, a_d = _max_step(s, ds_a), _max_step(lam, dl_a)
        mu = kkt[1] / m
        mu_aff = np.add.reduce(
            (s + a_p[:, None] * ds_a) * (lam + a_d[:, None] * dl_a), axis=1
        ) / m
        target = np.maximum(
            np.minimum(mu_aff / mu, 1.0) ** 3 * mu,
            _RESIDUAL_CENTRING * np.maximum(kkt[0], kkt[2]) / m,
        )
        dv, dt, ds, dl = direction(comp + ds_a * dl_a - target[:, None])
        alpha = np.where(
            active, np.minimum(_max_step(s, ds), _max_step(lam, dl)), 0.0
        )
        # The first trials must decrease the summed KKT error; later ones
        # need only stay in the domain, so a flat direction cannot stall.
        merit = np.add.reduce(kkt, axis=0)
        for halving in range(_MAX_HALVINGS):
            v_new = v + alpha[:, None, None] * dv
            t_new = t + alpha * dt
            s_new = s + alpha[:, None] * ds
            lam_new = lam + alpha[:, None] * dl
            state = prob.evaluate(v_new, t_new)
            res = _residuals(prob, state, v_new, t_new, s_new, lam_new)
            new_merit = np.add.reduce(res[4], axis=0)
            bad = ~np.isfinite(new_merit)
            if halving < _MERIT_TRIES:
                bad |= new_merit > (1.0 - 1e-4 * alpha) * merit
            if not bad.any():
                break
            alpha = np.where(bad, 0.5 * alpha, alpha)
        else:
            raise SolverError("stage-3 step safeguard found no acceptable step")
        v, t, s, lam = v_new, t_new, s_new, lam_new
        r_p, rd_v, rd_t, comp, kkt = res
    return v, t, s, lam, kkt


# -- the batched Alg. 3 alternation -------------------------------------------


def solve_stage3_batch(
    con: Stage3Constants,
    cycles: np.ndarray,
    p0: np.ndarray,
    b0: np.ndarray,
    fc0: np.ndarray,
    fs0: np.ndarray,
    *,
    max_outer_iterations: int = 40,
    gap_tol: Optional[np.ndarray] = None,
) -> Stage3BatchResult:
    """Run Alg. 3 (z-update ↔ convex solve) for every config in the batch.

    Each outer round performs the closed-form Eq. 25 ``z`` update at the
    current point and then solves the fixed-``z`` subproblem until its KKT
    residuals are within ``gap_tol``.  The first round starts from the
    clipped allocation with centred duals; later rounds continue from the
    previous round's primal-dual point after a complementarity reset.  The
    recorded history therefore has exactly the legacy alternation
    semantics: one entry per subproblem solved to tolerance, monotone up to
    solver noise.  A config freezes once two consecutive rounds agree
    within its own ε; the rest continue on a shrinking active set.
    """
    # The ``solver.stage3`` fault seam: a ``solver_fail`` rule raises
    # SolverError here (exercising the SLSQP degradation fallback); a
    # ``nan`` rule poisons this batch's final objective so the finite
    # guard at the exit fires instead — both deterministic under the plan.
    rule = _faults.fire("solver.stage3")
    nan_poison = rule is not None and rule.kind == "nan"
    k = con.batch
    cycles = np.asarray(cycles, dtype=float)
    p, b, f_c, f_s, t = strict_interior_start(con, cycles, p0, b0, fc0, fs0)
    start_value = _p5_value(con, cycles, p, b, f_c, f_s)
    if gap_tol is None:
        # Inner accuracy well below the outer ε (and below the 1e-6-relative
        # monotonicity budget of the recorded history), scaled to the
        # objective's magnitude so large-valued configs do not over-iterate.
        gap_tol = np.minimum(
            1e-7 * np.maximum(1.0, np.abs(start_value)), con.tolerance * 1e-2
        )
    else:
        gap_tol = np.broadcast_to(np.asarray(gap_tol, dtype=float), (k,)).copy()
    histories: List[List[float]] = [[] for _ in range(k)]
    gaps: List[List[float]] = [[] for _ in range(k)]
    outer_iters = np.zeros(k, dtype=int)
    newton = np.zeros(k, dtype=int)
    kkt = np.zeros((3, k))
    converged = np.zeros(k, dtype=bool)
    final_value = np.full(k, -np.inf)
    active_idx = np.arange(k)

    problem = _P6(con, cycles, 1.0 / (2.0 * p * con.d_tr * _rates(con, p, b)))
    v = np.stack([p, b, f_c, f_s], axis=-1) / _SI_UNITS
    t = t / T_SCALE
    # Cold start: feasible slacks, duals centred at the μ that balances the
    # T row of the stationarity condition (Σ y_n = α_t·T_SCALE), floored by
    # the objective's scale for configs that do not weigh delay.
    f0, *_, s = problem.evaluate(v, t)
    mu0 = np.maximum(
        problem.at / np.sum(1.0 / s[:, : con.n], axis=1),
        1e-3 * np.abs(f0) / problem.m,
    )
    lam = mu0[:, None] / s
    # Seeding ``previous`` with the start-point value makes a start that is
    # already a fixed point converge in one round.
    previous = start_value.copy()
    tol = gap_tol

    for round_index in range(max_outer_iterations):
        steps = np.zeros(len(active_idx), dtype=int)
        v, t, s, lam, kkt[:, active_idx] = _solve_round(
            problem, v, t, s, lam, tol, steps, warm=round_index > 0
        )
        newton[active_idx] += steps
        p_a, b_a, fc_a, fs_a = np.moveaxis(v * _SI_UNITS, -1, 0)
        sub = problem.con
        value = _p5_value(sub, problem.cycles, p_a, b_a, fc_a, fs_a)
        # Transform tightness (the Fig. 4(d) analogue) at this round's z.
        r_new = _rates(sub, p_a, b_a)
        f_tr = (p_a * sub.d_tr) ** 2 * problem.z + 1.0 / (
            4.0 * r_new**2 * problem.z
        )
        gap_now = np.sum(np.abs(p_a * sub.d_tr / r_new - f_tr), axis=-1)
        p[active_idx], b[active_idx] = p_a, b_a
        f_c[active_idx], f_s[active_idx] = fc_a, fs_a
        outer_iters[active_idx] += 1
        for j, idx in enumerate(active_idx):
            histories[idx].append(float(value[j]))
            gaps[idx].append(float(gap_now[j]))
        final_value[active_idx] = value
        done = np.abs(value - previous[active_idx]) <= sub.tolerance
        converged[active_idx[done]] = True
        previous[active_idx] = value
        if np.all(done):
            break
        if np.any(done):
            keep = ~done
            active_idx = active_idx[keep]
            problem = problem.select(keep)
            v, t, s, lam, tol = v[keep], t[keep], s[keep], lam[keep], tol[keep]
            p_a, b_a, r_new = p_a[keep], b_a[keep], r_new[keep]
        # Eq. 25: closed-form z update at the new point for the next round.
        problem.z = 1.0 / (2.0 * p_a * problem.con.d_tr * r_new)

    if nan_poison:
        final_value = np.full_like(final_value, np.nan)
    # A non-finite objective means the optimizer diverged (or was poisoned
    # by the fault layer); surface it as a classified failure instead of
    # letting NaN propagate silently into metrics and aggregates.
    if not np.all(np.isfinite(final_value)):
        bad = np.flatnonzero(~np.isfinite(final_value))
        raise SolverError(
            f"stage-3 produced a non-finite objective for batch member(s) "
            f"{bad.tolist()}"
        )
    # Eq. 23-style tightening: report T as the exact max delay.
    t_report = np.max(_delays(con, cycles, p, b, f_c, f_s), axis=-1)
    return Stage3BatchResult(
        p=p, b=b, f_c=f_c, f_s=f_s, T=t_report, value=final_value,
        outer_iterations=outer_iters,
        converged=converged & np.all(kkt <= gap_tol, axis=0),
        newton_iterations=newton,
        kkt_primal=kkt[0],
        kkt_complementarity=kkt[1],
        kkt_stationarity=kkt[2],
        gap_tol=gap_tol,
        histories=histories,
        transform_gaps=gaps,
    )
