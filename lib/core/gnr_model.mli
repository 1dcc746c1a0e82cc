(** Large-signal circuit models of extrinsic GNRFETs, built from the
    quantum-transport lookup tables (Fig 3(a) of the paper).

    A GNRFET channel is an array of parallel GNRs (4 in the paper) on a
    10 nm pitch; each GNR may carry its own width variation or charge
    impurity, which is how the 1-of-4 / 4-of-4 scenarios of Sections 4–5
    are expressed.  n-type and p-type devices are obtained from the
    ambipolar characteristic by gate work-function offset and mirroring,
    as the paper describes. *)

type polarity = N_type | P_type

type extrinsic = {
  rs : float;  (** source contact resistance, Ω (paper: 1k–100k, nominal 10k) *)
  rd : float;  (** drain contact resistance, Ω *)
  cgs_e : float;  (** extrinsic gate–source junction capacitance, F *)
  cgd_e : float;  (** extrinsic gate–drain junction capacitance, F *)
}

val default_extrinsic : unit -> extrinsic
(** Paper values for the 4-GNR array: junction capacitance 0.05 aF/nm
    (mid-range of the quoted 0.01–0.1 aF/nm) times the contact width
    (4 × 10 nm pitch); contact resistance 10 kΩ. *)

val intrinsic :
  polarity:polarity -> vt_shift:float -> Iv_table.t -> Fet_model.t
(** Model of a single intrinsic GNR.  [vt_shift] is the gate work-function
    offset (V): positive values shift the I–V left (lower VT), exactly as
    in Fig 2(b).  Negative VDS is handled by source/drain exchange
    symmetry; the p-type model is the complementary mirror image. *)

val array_fet :
  ?name:string ->
  polarity:polarity ->
  vt_shift:float ->
  Iv_table.t list ->
  Fet_model.t
(** Parallel array of per-GNR tables (one entry per GNR, so heterogeneous
    arrays express single-GNR anomalies). *)

val vt_nominal : Iv_table.t -> float
(** Threshold voltage of the (unshifted) table — memoized; the circuit VT
    of a device with [vt_shift] is [vt_nominal - vt_shift]. *)

val shift_for_vt : Iv_table.t -> float -> float
(** Offset needed to place the device threshold at the given VT. *)
