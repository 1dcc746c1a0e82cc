(** Intrinsic-device lookup tables: the bridge between the quantum transport
    simulations and the circuit simulator (Section 3 of the paper).

    A table holds [ID(VG, VD)] and channel charge [Q(VG, VD)] of a single
    GNR on a rectangular bias grid; circuit models interpolate bilinearly
    and differentiate the charge for the intrinsic capacitances. *)

type t = {
  key : string;  (** device identity the table was generated for *)
  vg : float array;  (** gate-bias grid, V (strictly increasing) *)
  vd : float array;  (** drain-bias grid, V (strictly increasing, >= 0) *)
  current : float array array;  (** [current.(ivg).(ivd)], A (one GNR) *)
  charge : float array array;  (** net channel charge, C (signed) *)
  failed_points : (int * int) list;
      (** quarantined [(ivg, ivd)] grid points whose SCF solve stayed
          unconverged through the whole escalation ladder; their
          [current]/[charge] entries are interpolated from converged
          neighbors (empty on healthy sweeps).  Sorted, duplicates
          impossible.  See docs/ROBUST.md. *)
}

type grid_spec = {
  vg_min : float;
  vg_max : float;
  n_vg : int;
  vd_max : float;
  n_vd : int;
}
(** Bias grid of a table: [n_vg] gate biases evenly spaced over
    [\[vg_min, vg_max\]] × [n_vd] drain biases evenly spaced over
    [\[0, vd_max\]]. *)

val default_grid : grid_spec
(** VG ∈ [-0.25, 1.05] (25 mV steps, fine enough to preserve the
    device transconductance through bilinear interpolation) × VD ∈ [0, 0.8]
    (50 mV): wide enough for p-type mirroring, gate-offset shifts and
    transient excursions at the paper's operating points (tables are
    stored for VD >= 0; negative VDS is handled by the circuit model
    through source/drain exchange symmetry). *)

val grid_key : grid_spec -> string
(** The grid signature ["vg<min>:<max>:<n>-vd<max>:<n>"] (numbers in
    [%g]/[%d]) that table keys end with.  {!Table_cache.key} uses it,
    and the on-disk cache is addressed by a digest of that key, so the
    format must not change. *)

val generate : ?grid:grid_spec -> Params.t -> t
(** Run the self-consistent solver over the grid (warm-starting each VG
    sweep from the previous bias point).  Each point goes through the
    {!Scf_robust} escalation ladder in continuation order: the first rung
    is the plain {!Scf.solve} call (a fully-converging sweep is
    bit-for-bit identical to pre-ladder behavior), and unrecoverable
    points are quarantined into [failed_points] (counted in
    [robust.iv_table.quarantined]) and interpolated from converged
    neighbors instead of aborting the sweep.  [grid] defaults to
    {!default_grid}.  The generation is one {!Parallel.scoped} scope,
    so one set of pool domains serves all its bias points; a generation
    running inside a task of {!Table_cache.get_many}'s device fan-out
    nests its energy runs in that same pool.  Each generation runs
    inside an [iv_table.generate] span and bumps [iv_table.generates]
    (see docs/OBS.md). *)

val current_at : t -> vg:float -> vd:float -> float
(** Bilinear interpolation; requires [vd >= 0] (the circuit layer owns the
    negative-VDS reflection). Clamped at the table edges. *)

val charge_at : t -> vg:float -> vd:float -> float

val dq_dvg : t -> vg:float -> vd:float -> float
(** ∂Q/∂VG of the interpolant (for [CG,i = |∂Q/∂VGS|]). *)

val dq_dvd : t -> vg:float -> vd:float -> float
(** ∂Q/∂VD of the interpolant (for [CGD,i = |∂Q/∂VDS|]). *)

val to_csv : t -> string
(** Plain CSV dump ("vg,vd,id_A,q_C" rows) for external plotting. *)
