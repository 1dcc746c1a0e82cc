(* Exponentially correlated Gaussian sequence: AR(1) with the stationary
   variance normalized back to sigma^2. *)
let correlated_sequence rng ~sigma ~corr_sites n =
  if corr_sites < 1 then invalid_arg "Roughness: corr_sites must be >= 1";
  let rho = exp (-1. /. float_of_int corr_sites) in
  let drive = sigma *. sqrt (1. -. (rho *. rho)) in
  let xs = Array.make n 0. in
  let prev = ref (Rng.gaussian rng ~mean:0. ~sigma) in
  for i = 0 to n - 1 do
    xs.(i) <- !prev;
    prev := (rho *. !prev) +. Rng.gaussian rng ~mean:0. ~sigma:drive
  done;
  xs

type study = {
  sigma : float;
  mean_transmission : float;
  std_transmission : float;
  mean_ratio : float;
  localization_estimate : float;
}

let ideal_chain ~gnr_index ~n_sites =
  let ms = Modespace.reduce gnr_index in
  let m = ms.Modespace.modes.(0) in
  let onsite = Array.make n_sites 0. in
  let hopping =
    Array.init (n_sites - 1) (fun i ->
        if i mod 2 = 0 then m.Modespace.t1 else m.Modespace.t2)
  in
  let sigma_of e =
    let gs =
      Self_energy.dimer_surface ~t1:m.Modespace.t1 ~t2:m.Modespace.t2 ~onsite:0. e
    in
    Complex.mul { Complex.re = m.Modespace.t2 ** 2.; im = 0. } gs
  in
  (m, fun e ->
    { Rgf.onsite; hopping; sigma_l = sigma_of e; sigma_r = sigma_of e })

let transmission_study ?(seed = 7) ?(realizations = 40) ?(n_sites = 140)
    ~gnr_index ~sigma ~corr_sites () =
  let m, chain_at = ideal_chain ~gnr_index ~n_sites in
  (* Five energies across the lower half of the first subband. *)
  let energies =
    Vec.linspace (m.Modespace.delta +. 0.02) (m.Modespace.delta +. 0.3) 5
  in
  let ideal_t =
    Vec.mean (Array.map (fun e -> Rgf.transmission (chain_at e) e) energies)
  in
  let rng = Rng.create seed in
  let samples =
    Array.init realizations (fun _ ->
        (* One disorder realization, shared across the energy average. *)
        let rng_r = Rng.split rng in
        let xi = correlated_sequence rng_r ~sigma ~corr_sites (n_sites - 1) in
        Vec.mean
          (Array.map
             (fun e ->
               let base = chain_at e in
               let chain =
                 {
                   base with
                   Rgf.hopping =
                     Array.mapi (fun i t -> t *. (1. +. xi.(i))) base.Rgf.hopping;
                 }
               in
               Rgf.transmission chain e)
             energies))
  in
  let stats = Stats.summarize samples in
  let mean_ratio = stats.Stats.mean /. Float.max ideal_t 1e-30 in
  let length = float_of_int n_sites *. Modespace.site_spacing in
  let ln_t = Vec.mean (Array.map (fun t -> log (Float.max t 1e-30)) samples) in
  let localization_estimate =
    if ln_t >= -1e-6 then infinity else -2. *. length /. ln_t
  in
  {
    sigma;
    mean_transmission = stats.Stats.mean;
    std_transmission = stats.Stats.std;
    mean_ratio;
    localization_estimate;
  }
