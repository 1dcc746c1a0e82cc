(** Threshold-voltage extraction using the standard MOS linear-extrapolation
    method of Fig 2(b): at low VD, extrapolate the I–V tangent at the point
    of maximum transconductance down to the VG axis. *)

val extract_from_curve : vg:float array -> id:float array -> float
(** [extract_from_curve ~vg ~id] returns the tangent intercept
    VGstar - I(VGstar)/gm(VGstar), where VGstar maximizes the
    (spline-smoothed) transconductance.  Requires at least four samples. *)

val extract : Params.t -> float
(** Run a low-VD sweep (VD = 0.05 V, 16 VG samples from the minimum-leakage
    point up to 0.75 V) and extract VT of the n-branch.  The gate
    work-function offset of the device shifts the result by the same
    amount, as the paper notes. *)

val extract_from_table : Iv_table.t -> float
(** Extraction using the lowest positive VD row of an existing table. *)
