(** Edge-roughness disorder for mode-space chains — the variability
    mechanism of Yoon & Guo (APL 91, 073103), which the paper cites as the
    natural next defect to study with this framework (Section 4).

    Edge roughness locally changes the ribbon width, i.e. the local
    band gap.  In the mode-space picture a local gap change is a local
    change of |t1 − t2|, so roughness is modeled as correlated relative
    disorder on the chain hoppings: each bond carries
    [t_i -> t_i * (1 + ξ_i)] with ξ a zero-mean Gaussian sequence of
    amplitude [sigma] and exponential correlation length [corr_sites]
    (roughly the roughness island length in units of half unit cells). *)

type study = {
  sigma : float;
  mean_transmission : float;  (** band-average T over the realizations *)
  std_transmission : float;
  mean_ratio : float;  (** vs the ideal chain's band-average T *)
  localization_estimate : float;
      (** crude localization length (m): -2 L / <ln T> at the band
          average, Inf when transport stays ballistic *)
}

val transmission_study :
  ?seed:int ->
  ?realizations:int ->
  ?n_sites:int ->
  gnr_index:int ->
  sigma:float ->
  corr_sites:int ->
  unit ->
  study
(** Monte Carlo over disorder realizations of the lowest-subband chain of
    the given A-GNR (defaults: seed 7, 40 realizations, 140 sites ≈ 15 nm,
    five energies spread over the first subband). *)
