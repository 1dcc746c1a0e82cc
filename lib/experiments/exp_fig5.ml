type profile = { charge : float; x_nm : float array; ec : float array }

type iv = { charge : float; vg : float array; id : float array }

type result = {
  profiles : profile list;
  ivs : iv list;
  ion_ratio_neg2q : float;
  ion_ratio_pos2q : float;
}

let params_of charge =
  if charge = 0. then Params.default ()
  else Params.with_impurity_charge (Params.default ()) charge

let profile_of charge =
  let p = params_of charge in
  let sol = Scf.solve p ~vg:0.25 ~vd:0.5 in
  let x_nm = Array.map (fun x -> x /. 1e-9) (Scf.site_positions p) in
  { charge; x_nm; ec = Scf.conduction_band_profile p sol }

let iv_of charge =
  let p = params_of charge in
  let table = Table_cache.get p in
  let vg = Vec.linspace 0. 0.8 33 in
  { charge; vg; id = Array.map (fun v -> Iv_table.current_at table ~vg:v ~vd:0.5) vg }

let run () =
  let charges = [ -2.; -1.; 0.; 1.; 2. ] in
  let profiles = List.map profile_of charges in
  let ivs = List.map iv_of [ -2.; 0.; 2. ] in
  let ion charge =
    let c = List.find (fun i -> i.charge = charge) ivs in
    c.id.(Array.length c.id - 3)
  in
  {
    profiles;
    ivs;
    ion_ratio_neg2q = ion 0. /. ion (-2.);
    ion_ratio_pos2q = ion 0. /. ion 2.;
  }

let print ppf r =
  Report.heading ppf "Fig 5: charge impurity near the source (N=12, VD=0.5V)";
  List.iter
    (fun (p : profile) ->
      Report.series ppf
        ~name:(Printf.sprintf "EC profile, impurity %+g q  (x [nm] vs EC [eV])" p.charge)
        ~xs:p.x_nm ~ys:p.ec)
    r.profiles;
  List.iter
    (fun c ->
      Report.series ppf
        ~name:(Printf.sprintf "I-V with %+g q   (VG [V] vs ID [A])" c.charge)
        ~xs:c.vg ~ys:c.id)
    r.ivs;
  Format.fprintf ppf "Ion(ideal)/Ion(-2q) = %.1fX (paper: ~6X)@." r.ion_ratio_neg2q;
  Format.fprintf ppf "Ion(ideal)/Ion(+2q) = %.1fX (paper: much smaller than -2q)@."
    r.ion_ratio_pos2q
