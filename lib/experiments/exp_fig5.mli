(** Fig 5: charge-impurity effects on the intrinsic N = 12 device —
    (a) conduction-band profile distortion near the source for charges
    −2q … +2q, (b) I–V curves with ±2q impurities, with the asymmetric
    on-current degradation (−2q costs ≈ 6X). *)

type profile = {
  charge : float;
  x_nm : float array;
  ec : float array;  (** conduction band edge, eV *)
}

type iv = { charge : float; vg : float array; id : float array }

type result = {
  profiles : profile list;  (** at VG = 0.25 V, VD = 0.5 V *)
  ivs : iv list;
  ion_ratio_neg2q : float;  (** Ion(ideal) / Ion(−2q) (paper: ≈ 6) *)
  ion_ratio_pos2q : float;  (** Ion(ideal) / Ion(+2q) (smaller) *)
}

val run : unit -> result

val print : Format.formatter -> result -> unit
