(** Fig 2(a): I–V characteristics of the ideal N = 12 GNRFET at
    VD ∈ \{0.05, 0.25, 0.5, 0.75\} V — ambipolar conduction with the
    leakage minimum at VG ≈ VD/2, exponentially increasing with VD. *)

type curve = { vd : float; vg : float array; id : float array }

type result = {
  curves : curve list;
  ion_a : float;  (** on-current of one GNR at VG = VD = 0.5 V, A *)
  ion_ua_um : float;  (** the paper's width-normalized figure, µA/µm *)
  min_leak_vg : float;  (** VG of minimum current at VD = 0.5, V *)
  vd_leak_ratio : float;
      (** minimum-leakage ratio between VD = 0.75 and VD = 0.25 (the
          exponential VD dependence) *)
}

val run : unit -> result
(** 31 gate-bias points per curve. *)

val print : Format.formatter -> result -> unit
