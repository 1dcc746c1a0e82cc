(* Tests for the NEGF solvers: self-energies, scalar RGF, block RGF, and
   their cross-validation (the key mode-space correctness check). *)

open Support

let flat_chain ?(n = 30) ?(t1 = 1.6) ?(t2 = 1.3) ?(onsite = 0.) () =
  let chain_onsite = Array.make n onsite in
  let hopping = Array.init (n - 1) (fun i -> if i mod 2 = 0 then t1 else t2) in
  let sigma e =
    let gs = Self_energy.dimer_surface ~t1 ~t2 ~onsite e in
    Complex.mul { Complex.re = t2 *. t2; im = 0. } gs
  in
  fun e ->
    { Rgf.onsite = chain_onsite; hopping; sigma_l = sigma e; sigma_r = sigma e }

let test_dimer_surface_retarded () =
  (* The retarded surface GF must have non-positive imaginary part
     (non-negative DOS) at every energy. *)
  List.iter
    (fun e ->
      let g = Self_energy.dimer_surface ~t1:1.6 ~t2:1.3 ~onsite:0. e in
      Alcotest.(check bool)
        (Printf.sprintf "Im g <= 0 at %g" e)
        true
        (g.Complex.im <= 1e-9))
    [ -3.5; -2.; -1.; -0.31; 0.; 0.2; 0.31; 1.; 2.; 3.5 ]

let test_dimer_surface_dos_support () =
  (* DOS is zero in the gap (|E| < t1 - t2 = 0.3) and positive in the band. *)
  let dos e =
    -.(Self_energy.dimer_surface ~eta:1e-9 ~t1:1.6 ~t2:1.3 ~onsite:0. e).Complex.im
  in
  Alcotest.(check bool) "gap" true (dos 0.1 < 1e-6);
  Alcotest.(check bool) "band" true (dos 1. > 0.01)

let test_flat_transmission_staircase () =
  let chain = flat_chain () in
  (* Inside the band of an ideal chain T = 1; inside the gap T ~ 0. *)
  List.iter
    (fun e -> approx ~eps:1e-3 (Printf.sprintf "T=1 at %g" e) 1. (Rgf.transmission (chain e) e))
    [ 0.5; 1.; 2.; -0.8; -1.5 ];
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "T~0 at %g" e)
        true
        (Rgf.transmission (chain e) e < 1e-3))
    [ 0.; 0.1; -0.2 ]

let test_spectra_consistency () =
  (* The one-pass transmission and the spectral-function path must agree:
     T = GammaR * a2 evaluated at site 0 equals GammaL * a1 at site n-1. *)
  let chain = flat_chain ~n:16 () in
  List.iter
    (fun e ->
      let c = chain e in
      let s = Rgf.spectra c e in
      let t_direct = Rgf.transmission c e in
      approx ~eps:1e-9 "t_coh consistent" t_direct s.Rgf.t_coh;
      let gamma_l = Rgf.gamma_of_sigma c.Rgf.sigma_l in
      approx ~eps:1e-9 "T = GammaL * a1(n-1)" s.Rgf.t_coh
        (gamma_l *. s.Rgf.a1.(15)))
    [ 0.5; 0.9; 1.7 ]

let test_spectra_nonnegative () =
  let chain = flat_chain ~n:12 () in
  List.iter
    (fun e ->
      let s = Rgf.spectra (chain e) e in
      Array.iter (fun a -> Alcotest.(check bool) "a1 >= 0" true (a >= 0.)) s.Rgf.a1;
      Array.iter (fun a -> Alcotest.(check bool) "a2 >= 0" true (a >= 0.)) s.Rgf.a2)
    [ -1.; 0.; 0.6; 2. ]

let test_barrier_suppresses_transmission () =
  (* Probe at E = 0.5 (inside the lead band).  A barrier of height u puts
     the probe energy inside the local gap [u - 0.3, u + 0.3]; suppression
     is strongest when the energy sits at the local mid-gap (u = 0.5). *)
  let n = 40 in
  let t1 = 1.6 and t2 = 1.3 in
  let hopping = Array.init (n - 1) (fun i -> if i mod 2 = 0 then t1 else t2) in
  let sigma e =
    Complex.mul
      { Complex.re = t2 *. t2; im = 0. }
      (Self_energy.dimer_surface ~t1 ~t2 ~onsite:0. e)
  in
  let with_barrier height =
    let onsite =
      Array.init n (fun i -> if i >= 10 && i < 30 then height else 0.)
    in
    let e = 0.5 in
    Rgf.transmission { Rgf.onsite; hopping; sigma_l = sigma e; sigma_r = sigma e } e
  in
  let t0 = with_barrier 0. and t_edge = with_barrier 0.35 and t_mid = with_barrier 0.5 in
  Alcotest.(check bool) "monotone suppression" true (t0 > t_edge && t_edge > t_mid);
  Alcotest.(check bool) "deep barrier nearly opaque" true (t_mid < 0.06)

let test_block_rgf_staircase () =
  (* Ideal N=12 A-GNR: T(E) counts open subbands: 0 in the gap, 1 above
     the first subband edge. *)
  let gap = Bands.gap_of_index 12 in
  let t_gap = Rgf_block.ideal_gnr_transmission ~n_cells:6 12 (gap /. 4.) in
  Alcotest.(check bool) "gap opaque" true (t_gap < 1e-2);
  let t_band = Rgf_block.ideal_gnr_transmission ~n_cells:6 12 ((gap /. 2.) +. 0.15) in
  approx ~eps:2e-2 "one mode open" 1. t_band

let test_modespace_matches_block () =
  (* The central validation: mode-space transmission equals the atomistic
     real-space result for the ideal ribbon across the spectrum. *)
  let n = 12 in
  let ms = Modespace.reduce ~n_modes:3 n in
  let sites = 16 in
  let chain_of (m : Modespace.mode) e =
    let onsite = Array.make sites 0. in
    let hopping =
      Array.init (sites - 1) (fun i ->
          if i mod 2 = 0 then m.Modespace.t1 else m.Modespace.t2)
    in
    let gs =
      Self_energy.dimer_surface ~t1:m.Modespace.t1 ~t2:m.Modespace.t2 ~onsite:0. e
    in
    let sigma = Complex.mul { Complex.re = m.Modespace.t2 ** 2.; im = 0. } gs in
    { Rgf.onsite; hopping; sigma_l = sigma; sigma_r = sigma }
  in
  List.iter
    (fun e ->
      let t_ms =
        Array.fold_left
          (fun acc m -> acc +. Rgf.transmission (chain_of m e) e)
          0. ms.Modespace.modes
      in
      let t_block = Rgf_block.ideal_gnr_transmission ~n_cells:8 n e in
      approx ~eps:3e-3 (Printf.sprintf "T at %g" e) t_block t_ms)
    [ 0.1; 0.35; 0.5; 0.75; 1.0; 1.5 ]

let bias = { Observables.mu_s = 0.; mu_d = -0.3; kt = 0.0259 }

let test_current_zero_at_equilibrium () =
  let chain = flat_chain ~n:20 () in
  let egrid = Observables.energy_grid ~lo:(-0.6) ~hi:0.6 ~de:0.004 in
  let eq = { Observables.mu_s = 0.; mu_d = 0.; kt = 0.0259 } in
  let i = Observables.current ~bias:eq ~egrid chain in
  Alcotest.(check bool) "equilibrium current ~ 0" true (Float.abs i < 1e-15)

let test_current_sign_and_magnitude () =
  (* One fully open spin-degenerate mode over a 0.3 V window carries at
     most G0 * 0.3; a mid-band chain gets close. *)
  let t1 = 1.6 and t2 = 1.55 in
  (* small gap 0.05: almost metallic *)
  let n = 20 in
  let onsite = Array.make n (-0.15) in
  (* center the band on the bias window *)
  let hopping = Array.init (n - 1) (fun i -> if i mod 2 = 0 then t1 else t2) in
  let sigma e =
    Complex.mul
      { Complex.re = t2 *. t2; im = 0. }
      (Self_energy.dimer_surface ~t1 ~t2 ~onsite:(-0.15) e)
  in
  let egrid = Observables.energy_grid ~lo:(-0.7) ~hi:0.4 ~de:0.002 in
  let chain e = { Rgf.onsite; hopping; sigma_l = sigma e; sigma_r = sigma e } in
  let i = Observables.current ~bias ~egrid chain in
  Alcotest.(check bool) "positive" true (i > 0.);
  let i_max = Const.g0 *. 0.3 in
  Alcotest.(check bool) "bounded by ballistic limit" true (i < i_max *. 1.001);
  Alcotest.(check bool) "mostly open" true (i > 0.55 *. i_max)

let test_charge_neutrality_at_half_filling () =
  (* Symmetric chain with mu at mid-gap: electron and hole counts cancel. *)
  let chain = flat_chain ~n:20 () in
  let egrid = Observables.energy_grid ~lo:(-3.4) ~hi:3.4 ~de:0.005 in
  let eq = { Observables.mu_s = 0.; mu_d = 0.; kt = 0.0259 } in
  let midgap = (chain 0.).Rgf.onsite in
  let q = Observables.site_charge ~bias:eq ~egrid ~midgap chain in
  Array.iteri
    (fun i qi ->
      Alcotest.(check bool)
        (Printf.sprintf "site %d neutral" i)
        true
        (Float.abs qi < 0.02 *. Const.q))
    q

let test_charge_sign_follows_mu () =
  let chain = flat_chain ~n:20 () in
  let egrid = Observables.energy_grid ~lo:(-3.6) ~hi:3.6 ~de:0.005 in
  let midgap = (chain 0.).Rgf.onsite in
  let electron_bias = { Observables.mu_s = 0.8; mu_d = 0.8; kt = 0.0259 } in
  let q_e = Observables.site_charge ~bias:electron_bias ~egrid ~midgap chain in
  Alcotest.(check bool) "electrons negative" true (Vec.sum q_e < -0.1 *. Const.q);
  let hole_bias = { Observables.mu_s = -0.8; mu_d = -0.8; kt = 0.0259 } in
  let q_h = Observables.site_charge ~bias:hole_bias ~egrid ~midgap chain in
  Alcotest.(check bool) "holes positive" true (Vec.sum q_h > 0.1 *. Const.q)

let test_sancho_rubio_agrees_with_dimer () =
  (* A 1x1-block chain with alternating couplings folded into a 2x2 cell
     must give the same surface DOS as the scalar decimation. *)
  let t1 = 1.6 and t2 = 1.3 in
  let h00 =
    Cmatrix.init 2 2 (fun i j ->
        if (i = 0 && j = 1) || (i = 1 && j = 0) then { Complex.re = t1; im = 0. }
        else Complex.zero)
  in
  let h01 =
    Cmatrix.init 2 2 (fun i j ->
        if i = 1 && j = 0 then { Complex.re = t2; im = 0. } else Complex.zero)
  in
  List.iter
    (fun e ->
      let gs = Self_energy.sancho_rubio ~eta:1e-7 ~h00 ~h01 e in
      (* The exposed surface site of this right-lead orientation is the
         cell's A site (index 0), whose inward bond is t1: exactly the
         configuration of the scalar decimation. *)
      let g_block = Cmatrix.get gs 0 0 in
      let g_scalar = Self_energy.dimer_surface ~eta:1e-7 ~t1 ~t2 ~onsite:0. e in
      approx ~eps:1e-5 (Printf.sprintf "Re g at %g" e) g_scalar.Complex.re g_block.Complex.re;
      approx ~eps:1e-5 (Printf.sprintf "Im g at %g" e) g_scalar.Complex.im g_block.Complex.im)
    [ 0.8; 1.5; 2.5 ]

let exact_array name a b =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: site %d bit-for-bit" name i)
        true
        (v = b.(i)))
    a

(* The determinism contract: the parallel energy loop must reproduce the
   sequential path exactly (not approximately), for any worker count. *)

let test_site_charge_parallel_exact () =
  let chain = flat_chain ~n:20 () in
  let egrid = Observables.energy_grid ~lo:(-3.4) ~hi:3.4 ~de:0.01 in
  let midgap = (chain 0.).Rgf.onsite in
  let q_seq =
    at_width 1 (fun () -> Observables.site_charge ~bias ~egrid ~midgap chain)
  in
  let q_par = Observables.site_charge ~bias ~egrid ~midgap chain in
  exact_array "site_charge parallel vs sequential" q_seq q_par;
  List.iter
    (fun d ->
      at_width d (fun () ->
          let q = Observables.site_charge ~bias ~egrid ~midgap chain in
          exact_array (Printf.sprintf "site_charge GNRFET_DOMAINS=%d" d) q_seq q))
    [ 3; 7 ]

let test_current_parallel_exact () =
  let chain = flat_chain ~n:20 () in
  let egrid = Observables.energy_grid ~lo:(-0.7) ~hi:0.4 ~de:0.004 in
  let i_seq = at_width 1 (fun () -> Observables.current ~bias ~egrid chain) in
  List.iter
    (fun d ->
      at_width d (fun () ->
          let i = Observables.current ~bias ~egrid chain in
          Alcotest.(check bool)
            (Printf.sprintf "current bit-for-bit under %d domains" d)
            true (i = i_seq)))
    [ 2; 4 ]

let test_spectra_into_matches_spectra () =
  let chain = flat_chain ~n:14 () in
  let ws = Rgf.workspace () in
  List.iter
    (fun e ->
      let c = chain e in
      let s = Rgf.spectra c e in
      let t_ws = Rgf.spectra_into ws c e in
      Alcotest.(check bool) "t_coh bit-for-bit" true (t_ws = s.Rgf.t_coh);
      let a1 = Rgf.a1 ws and a2 = Rgf.a2 ws in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) (Printf.sprintf "a1 %d" i) true (a1.(i) = v))
        s.Rgf.a1;
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) (Printf.sprintf "a2 %d" i) true (a2.(i) = v))
        s.Rgf.a2;
      Alcotest.(check bool)
        "transmission_into bit-for-bit" true
        (Rgf.transmission_into ws c e = Rgf.transmission c e))
    [ -1.2; 0.; 0.45; 0.9; 1.7 ]

let test_workspace_grows_and_revalidates () =
  let ws = Rgf.workspace ~hint:4 () in
  (* Grow through chains of different lengths, interleaved: the cached
     validation must track the chain identity, not just accept reuse. *)
  let small = flat_chain ~n:6 () 0.5 in
  let big = flat_chain ~n:40 () 0.5 in
  let t_small = Rgf.spectra_into ws small 0.5 in
  let t_big = Rgf.spectra_into ws big 0.5 in
  let t_small' = Rgf.spectra_into ws small 0.5 in
  Alcotest.(check bool) "small chain stable across growth" true
    (t_small = t_small');
  approx ~eps:1e-9 "big equals fresh spectra" (Rgf.spectra big 0.5).Rgf.t_coh
    t_big;
  (* Malformed chains still fail validation through the workspace path. *)
  let bad =
    { Rgf.onsite = [| 0.; 0.; 0. |]; hopping = [| 1. |];
      sigma_l = Complex.zero; sigma_r = Complex.zero }
  in
  check_raises_invalid "hopping length mismatch" (fun () ->
      ignore (Rgf.spectra_into ws bad 0.));
  (* The two-lane entry point needs two workspaces and one chain length. *)
  let wy = Rgf.workspace () in
  check_raises_invalid "pair lanes share a workspace" (fun () ->
      Rgf.spectra_pair_into ws small 0.5 ws small 0.6);
  check_raises_invalid "pair lanes differ in length" (fun () ->
      Rgf.spectra_pair_into ws small 0.5 wy big 0.6);
  check_raises_invalid "pair lane y malformed" (fun () ->
      Rgf.spectra_pair_into ws small 0.5 wy bad 0.6)

let test_energy_grid () =
  let g = Observables.energy_grid ~lo:(-1.) ~hi:1. ~de:0.1 in
  Alcotest.(check bool) "at least 21 points" true (Array.length g >= 21);
  approx "start" (-1.) g.(0);
  approx "end" 1. g.(Array.length g - 1);
  check_raises_invalid "empty range" (fun () ->
      ignore (Observables.energy_grid ~lo:1. ~hi:0. ~de:0.1))

let suite =
  [
    Alcotest.test_case "dimer surface retarded" `Quick test_dimer_surface_retarded;
    Alcotest.test_case "dimer surface DOS support" `Quick test_dimer_surface_dos_support;
    Alcotest.test_case "flat chain staircase" `Quick test_flat_transmission_staircase;
    Alcotest.test_case "spectra consistency" `Quick test_spectra_consistency;
    Alcotest.test_case "spectra non-negative" `Quick test_spectra_nonnegative;
    Alcotest.test_case "barrier suppression" `Quick test_barrier_suppresses_transmission;
    Alcotest.test_case "block RGF staircase" `Quick test_block_rgf_staircase;
    Alcotest.test_case "mode-space vs block RGF" `Quick test_modespace_matches_block;
    Alcotest.test_case "equilibrium current" `Quick test_current_zero_at_equilibrium;
    Alcotest.test_case "current sign and bound" `Quick test_current_sign_and_magnitude;
    Alcotest.test_case "half-filling neutrality" `Quick test_charge_neutrality_at_half_filling;
    Alcotest.test_case "charge sign follows mu" `Quick test_charge_sign_follows_mu;
    Alcotest.test_case "sancho-rubio vs dimer" `Quick test_sancho_rubio_agrees_with_dimer;
    Alcotest.test_case "energy grid" `Quick test_energy_grid;
    Alcotest.test_case "site_charge parallel exact" `Quick test_site_charge_parallel_exact;
    Alcotest.test_case "current parallel exact" `Quick test_current_parallel_exact;
    Alcotest.test_case "spectra_into matches spectra" `Quick
      test_spectra_into_matches_spectra;
    Alcotest.test_case "workspace growth + validation" `Quick
      test_workspace_grows_and_revalidates;
  ]

let test_block_spectra_transmission_consistent () =
  List.iter
    (fun e ->
      let dev = Rgf_block.ideal_gnr_device ~n_cells:5 7 e in
      let s = Rgf_block.spectra dev e in
      let t = Rgf_block.transmission dev e in
      approx ~eps:1e-8 (Printf.sprintf "T consistent at %g" e) t s.Rgf_block.t_coh;
      Array.iter
        (fun per_block ->
          Array.iter
            (fun v -> Alcotest.(check bool) "a1 >= 0" true (v >= -1e-10))
            per_block)
        s.Rgf_block.a1)
    [ 0.8; 1.2; 2.0 ]

let test_block_equilibrium_half_filling () =
  (* Integrating the occupied atomistic spectral weight over the full band
     at mu = mid-gap must give half an electron per atom per spin: the
     real-space counterpart of the mode-space neutrality test. *)
  let n = 5 in
  let kt = 0.0259 in
  (* eta must stay negligible against Gamma(E) (a finite eta is a third,
     absorbing contact that steals weight from a1 + a2); the fine grid
     handles the van Hove edges. *)
  let eta = 1e-6 in
  let egrid = Observables.energy_grid ~lo:(-8.8) ~hi:8.8 ~de:2e-3 in
  let n_atoms = Lattice.atoms_per_cell n in
  let occupancy = Array.make n_atoms 0. in
  let block = 2 (* interior cell *) in
  let prev = ref None in
  Array.iter
    (fun e ->
      let dev = Rgf_block.ideal_gnr_device ~n_cells:5 n e in
      let s = Rgf_block.spectra ~eta dev e in
      let f = Fermi.occupation ~mu:0. ~kt e in
      let sample =
        Array.init n_atoms (fun i ->
            (s.Rgf_block.a1.(block).(i) +. s.Rgf_block.a2.(block).(i)) *. f)
      in
      (match !prev with
      | Some (e0, s0) ->
        let h = 0.5 *. (e -. e0) in
        Array.iteri (fun i v -> occupancy.(i) <- occupancy.(i) +. (h *. (v +. s0.(i)))) sample
      | None -> ());
      prev := Some (e, sample))
    egrid;
  Array.iteri
    (fun i occ ->
      approx ~eps:0.05
        (Printf.sprintf "atom %d half-filled" i)
        0.5
        (occ /. (2. *. Float.pi)))
    occupancy

let test_block_rejects_malformed_devices () =
  (* Both entry points vet the whole device: each defect must raise
     Invalid_argument from transmission and spectra alike. *)
  let e = 0.8 in
  let dev = Rgf_block.ideal_gnr_device ~n_cells:3 7 e in
  let m, _ = Cmatrix.dims dev.Rgf_block.blocks.(0) in
  let surplus =
    { dev with Rgf_block.couplings = Array.make 3 dev.Rgf_block.couplings.(0) }
  in
  let blocks = Array.copy dev.Rgf_block.blocks in
  blocks.(1) <- Cmatrix.create m (m + 1);
  let non_square = { dev with Rgf_block.blocks } in
  let bad_sigma = { dev with Rgf_block.sigma_r = Cmatrix.create (m - 1) (m - 1) } in
  List.iter
    (fun (name, bad) ->
      check_raises_invalid (name ^ ": transmission") (fun () ->
          ignore (Rgf_block.transmission bad e));
      check_raises_invalid (name ^ ": spectra") (fun () ->
          ignore (Rgf_block.spectra bad e)))
    [
      ("surplus couplings", surplus);
      ("non-square block", non_square);
      ("mis-sized self-energy", bad_sigma);
    ]

let test_dimer_surface_closed_form () =
  (* Regression for the removed ?tol/?max_iter: the returned root must
     satisfy the decimation quadratic t2^2 z g^2 - (z^2 - t1^2 + t2^2) g
     + z = 0 exactly (to rounding) — closed form, nothing iterative. *)
  let t1 = 1.6 and t2 = 1.3 and onsite = -0.2 and eta = 1e-5 in
  List.iter
    (fun e ->
      let g = Self_energy.dimer_surface ~eta ~t1 ~t2 ~onsite e in
      let open Complex in
      let z = { re = e -. onsite; im = eta } in
      let t1sq = { re = t1 *. t1; im = 0. } and t2sq = { re = t2 *. t2; im = 0. } in
      let residual =
        add
          (sub (mul (mul t2sq z) (mul g g)) (mul (add (sub (mul z z) t1sq) t2sq) g))
          z
      in
      Alcotest.(check bool)
        (Printf.sprintf "quadratic residual at %g" e)
        true
        (norm residual < 1e-10);
      Alcotest.(check bool)
        (Printf.sprintf "retarded at %g" e)
        true
        (g.im <= 1e-9))
    [ -2.5; -1.; -0.2; 0.; 0.25; 0.9; 2.1 ]

let test_sancho_rubio_stalls_typed () =
  (* An iteration cap that cannot be met must surface as the typed
     Iterative_no_convergence, carrying the solver name — never a silent
     wrong answer. *)
  let tb = Tight_binding.make 7 in
  let h00 = Cmatrix.of_real tb.Tight_binding.h00 in
  let h01 = Cmatrix.of_real tb.Tight_binding.h01 in
  match Self_energy.sancho_rubio ~max_iter:0 ~h00 ~h01 0.8 with
  | exception
      Robust_error.Error
        (Robust_error.Iterative_no_convergence { solver; iterations; _ }) ->
    Alcotest.(check string) "solver tag" "Self_energy.sancho_rubio" solver;
    Alcotest.(check int) "stopped at the cap" 0 iterations
  | _ -> Alcotest.fail "sancho_rubio converged with max_iter:0"

let block_suite =
  [
    Alcotest.test_case "block spectra consistency" `Quick
      test_block_spectra_transmission_consistent;
    Alcotest.test_case "block equilibrium half-filling" `Quick
      test_block_equilibrium_half_filling;
    Alcotest.test_case "block rejects malformed devices" `Quick
      test_block_rejects_malformed_devices;
    Alcotest.test_case "dimer surface closed form" `Quick
      test_dimer_surface_closed_form;
    Alcotest.test_case "sancho-rubio stalls typed" `Quick
      test_sancho_rubio_stalls_typed;
  ]

(* The two-pass spectra kernel the fused sweep replaced, kept verbatim
   as the bit-for-bit oracle: left-connected sweep, right-connected
   sweep, first column, last column, then the spectral diagonals. *)
let sequential_spectra ~eta (chain : Rgf.chain) e =
  let n = Array.length chain.Rgf.onsite in
  let inv_re zr zi = let d = (zr *. zr) +. (zi *. zi) in zr /. d in
  let inv_im zr zi = let d = (zr *. zr) +. (zi *. zi) in -.zi /. d in
  let glr = Array.make n 0. and gli = Array.make n 0. in
  let grr = Array.make n 0. and gri = Array.make n 0. in
  let c0r = Array.make n 0. and c0i = Array.make n 0. in
  let cnr = Array.make n 0. and cni = Array.make n 0. in
  let a1 = Array.make n 0. and a2 = Array.make n 0. in
  let u = chain.Rgf.onsite and h = chain.Rgf.hopping in
  let slr = chain.Rgf.sigma_l.Complex.re and sli = chain.Rgf.sigma_l.Complex.im in
  let srr = chain.Rgf.sigma_r.Complex.re and sri = chain.Rgf.sigma_r.Complex.im in
  let zr0 = e -. u.(0) -. slr and zi0 = eta -. sli in
  glr.(0) <- inv_re zr0 zi0;
  gli.(0) <- inv_im zr0 zi0;
  for i = 1 to n - 1 do
    let t2 = h.(i - 1) *. h.(i - 1) in
    let zr = e -. u.(i) -. (t2 *. glr.(i - 1)) in
    let zi = eta -. (t2 *. gli.(i - 1)) in
    let zr = if i = n - 1 then zr -. srr else zr in
    let zi = if i = n - 1 then zi -. sri else zi in
    glr.(i) <- inv_re zr zi;
    gli.(i) <- inv_im zr zi
  done;
  let zrn = e -. u.(n - 1) -. srr and zin = eta -. sri in
  grr.(n - 1) <- inv_re zrn zin;
  gri.(n - 1) <- inv_im zrn zin;
  for i = n - 2 downto 0 do
    let t2 = h.(i) *. h.(i) in
    let zr = e -. u.(i) -. (t2 *. grr.(i + 1)) in
    let zi = eta -. (t2 *. gri.(i + 1)) in
    let zr = if i = 0 then zr -. slr else zr in
    let zi = if i = 0 then zi -. sli else zi in
    grr.(i) <- inv_re zr zi;
    gri.(i) <- inv_im zr zi
  done;
  c0r.(0) <- grr.(0);
  c0i.(0) <- gri.(0);
  for i = 1 to n - 1 do
    let ar = grr.(i) *. h.(i - 1) and ai = gri.(i) *. h.(i - 1) in
    c0r.(i) <- (ar *. c0r.(i - 1)) -. (ai *. c0i.(i - 1));
    c0i.(i) <- (ar *. c0i.(i - 1)) +. (ai *. c0r.(i - 1))
  done;
  cnr.(n - 1) <- glr.(n - 1);
  cni.(n - 1) <- gli.(n - 1);
  for i = n - 2 downto 0 do
    let ar = glr.(i) *. h.(i) and ai = gli.(i) *. h.(i) in
    cnr.(i) <- (ar *. cnr.(i + 1)) -. (ai *. cni.(i + 1));
    cni.(i) <- (ar *. cni.(i + 1)) +. (ai *. cnr.(i + 1))
  done;
  let gamma_l = Rgf.gamma_of_sigma chain.Rgf.sigma_l in
  let gamma_r = Rgf.gamma_of_sigma chain.Rgf.sigma_r in
  for i = 0 to n - 1 do
    a1.(i) <- gamma_l *. ((c0r.(i) *. c0r.(i)) +. (c0i.(i) *. c0i.(i)));
    a2.(i) <- gamma_r *. ((cnr.(i) *. cnr.(i)) +. (cni.(i) *. cni.(i)))
  done;
  let g0n2 = (cnr.(0) *. cnr.(0)) +. (cni.(0) *. cni.(0)) in
  (gamma_l *. gamma_r *. g0n2, a1, a2)

let test_spectra_matches_sequential_oracle () =
  let rng = Rng.create 15 in
  let ws = Rgf.workspace () in
  (* Mode-space-like chains: alternating hoppings, a random potential
     profile and distinct contact self-energies. *)
  let random_chain rng n =
    let sigma () =
      { Complex.re = Rng.uniform rng (-0.5) 0.5; im = -.Rng.uniform rng 0.01 1. }
    in
    {
      Rgf.onsite = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.);
      hopping = Array.init (n - 1) (fun _ -> Rng.uniform rng 0.5 3.);
      sigma_l = sigma ();
      sigma_r = sigma ();
    }
  in
  (* The two-lane cases draw from their own generator, so the one-lane
     cases keep their inputs. *)
  let rng2 = Rng.create 20 in
  let wx = Rgf.workspace () and wy = Rgf.workspace () in
  let lane name ws (t_ref, a1_ref, a2_ref) n =
    check_bits (name ^ " t_coh") [| t_ref |] [| Rgf.t_coh ws |];
    check_bits (name ^ " a1") a1_ref (Array.sub (Rgf.a1 ws) 0 n);
    check_bits (name ^ " a2") a2_ref (Array.sub (Rgf.a2 ws) 0 n)
  in
  List.iter
    (fun n ->
      for trial = 0 to 5 do
        let chain = random_chain rng n in
        List.iter
          (fun eta ->
            for _ = 1 to 4 do
              let e = Rng.uniform rng (-3.) 3. in
              let name = Printf.sprintf "n=%d trial %d eta=%g e=%h" n trial eta e in
              let t_ref, a1_ref, a2_ref = sequential_spectra ~eta chain e in
              let s = Rgf.spectra ~eta chain e in
              check_bits (name ^ " spectra t_coh") [| t_ref |] [| s.Rgf.t_coh |];
              check_bits (name ^ " spectra a1") a1_ref s.Rgf.a1;
              check_bits (name ^ " spectra a2") a2_ref s.Rgf.a2;
              let t_ws = Rgf.spectra_into ~eta ws chain e in
              check_bits (name ^ " spectra_into t_coh") [| t_ref |] [| t_ws |];
              check_bits (name ^ " spectra_into a1") a1_ref (Array.sub (Rgf.a1 ws) 0 n);
              check_bits (name ^ " spectra_into a2") a2_ref (Array.sub (Rgf.a2 ws) 0 n);
              (* Two lanes: one chain at two energies, then a second
                 chain (own profile, hoppings and sigma) in lane y. *)
              let e2 = Rng.uniform rng2 (-3.) 3. in
              let chain2 = random_chain rng2 n in
              let name2 = Printf.sprintf "%s e2=%h" name e2 in
              Rgf.spectra_pair_into ~eta wx chain e wy chain e2;
              lane (name2 ^ " pair, one chain, lane x") wx (t_ref, a1_ref, a2_ref) n;
              lane (name2 ^ " pair, one chain, lane y") wy
                (sequential_spectra ~eta chain e2) n;
              Rgf.spectra_pair_into ~eta wx chain e wy chain2 e2;
              lane (name2 ^ " pair, two chains, lane x") wx (t_ref, a1_ref, a2_ref) n;
              lane (name2 ^ " pair, two chains, lane y") wy
                (sequential_spectra ~eta chain2 e2) n
            done)
          [ 1e-6; 1.5e-3 ]
      done)
    [ 2; 3; 4; 5; 7; 70; 71 ]

(* [Observables.site_charge] as it was before the charge integral swept
   two energies per kernel call, kept verbatim as the bit-for-bit oracle
   (less its instrumentation, and with the two-pass kernel above as its
   spectra): one sweep per sample, the chunk's first sample swept again
   by every chunk, and a separate accumulate pass per interval. *)
let site_charge_oracle ~eta ~bias ~egrid ~midgap chain_at =
  let { Observables.mu_s; mu_d; kt } = bias in
  let chain0 = chain_at egrid.(0) in
  let n = Array.length chain0.Rgf.onsite in
  let chain_of k = if k = 0 then chain0 else chain_at egrid.(k) in
  let sample_into dst k =
    let e = egrid.(k) in
    let _, a1, a2 = sequential_spectra ~eta (chain_of k) e in
    let fs = Fermi.occupation ~mu:mu_s ~kt e in
    let fd = Fermi.occupation ~mu:mu_d ~kt e in
    for i = 0 to n - 1 do
      dst.(i) <-
        (if e >= midgap.(i) then (a1.(i) *. fs) +. (a2.(i) *. fd)
         else -.((a1.(i) *. (1. -. fs)) +. (a2.(i) *. (1. -. fd))))
    done
  in
  let electrons, holes =
    Parallel.map_reduce
      ~n:(Array.length egrid - 1)
      ~worker:(fun _ -> (ref (Array.make n 0.), ref (Array.make n 0.)))
      ~body:(fun (s_prev, s_cur) ~lo ~hi ->
        let electrons = Array.make n 0. and holes = Array.make n 0. in
        sample_into !s_prev lo;
        for k = lo to hi - 1 do
          sample_into !s_cur (k + 1);
          let h = 0.5 *. (egrid.(k + 1) -. egrid.(k)) in
          let sp = !s_prev and sc = !s_cur in
          for i = 0 to n - 1 do
            let v = h *. (sp.(i) +. sc.(i)) in
            if v >= 0. then electrons.(i) <- electrons.(i) +. v
            else holes.(i) <- holes.(i) -. v
          done;
          s_prev := sc;
          s_cur := sp
        done;
        (electrons, holes))
      ~combine:(fun (ea, ha) (eb, hb) ->
        for i = 0 to n - 1 do
          ea.(i) <- ea.(i) +. eb.(i);
          ha.(i) <- ha.(i) +. hb.(i)
        done;
        (ea, ha))
      (Array.make n 0., Array.make n 0.)
  in
  let scale = 2. *. Const.q /. (2. *. Float.pi) in
  Array.init n (fun i -> -.scale *. (electrons.(i) -. holes.(i)))

let bits a = Array.map Int64.bits_of_float a

let test_site_charge_matches_oracle () =
  let eta = 1.5e-3 in
  (* An energy-dependent chain (sigma moves with E), and a fixed chain
     whose potential, and so mid-gap, slopes along the channel so the
     electron/hole split moves from site to site. *)
  let flat = flat_chain ~n:20 () in
  let slope = Array.init 20 (fun i -> -0.4 +. (0.04 *. float_of_int i)) in
  let fixed = { (flat 0.3) with Rgf.onsite = slope } in
  let cases =
    [ ("flat_chain", (flat 0.).Rgf.onsite, flat); ("sloped", slope, fun _ -> fixed) ]
  in
  List.iter
    (fun (label, midgap, chain_at) ->
      List.iter
        (fun intervals ->
          let egrid = Vec.linspace (-1.3) 1.1 (intervals + 1) in
          let name = Printf.sprintf "%s, %d intervals" label intervals in
          let expected = site_charge_oracle ~eta ~bias ~egrid ~midgap chain_at in
          let q =
            at_width 1 (fun () ->
                Observables.site_charge ~eta ~bias ~egrid ~midgap chain_at)
          in
          Alcotest.(check (array int64)) (name ^ ", sequential") (bits expected) (bits q);
          at_width 3 (fun () ->
              let q = Observables.site_charge ~eta ~bias ~egrid ~midgap chain_at in
              Alcotest.(check (array int64))
                (name ^ ", GNRFET_DOMAINS=3") (bits expected) (bits q)))
        [ 1; 2; 3; 15; 16; 17; 32; 33; 201 ])
    cases;
  let egrid = Vec.linspace (-1.3) 1.1 202 in
  let charge () =
    ignore
      (Observables.site_charge ~eta ~bias ~egrid ~midgap:slope (fun _ -> fixed))
  in
  let current () =
    ignore (Observables.current ~eta ~bias ~egrid (fun _ -> fixed) : float)
  in
  with_obs @@ fun () ->
  let ne = Array.length egrid in
  let adds counter f =
    let before = Obs.counter_value counter in
    f ();
    Obs.counter_value counter - before
  in
  (* One sweep per grid sample on one worker: each chunk reuses the
     sample its predecessor ended on. *)
  at_width 1 (fun () ->
      Alcotest.(check int) "rgf.spectra_energies per call" ne
        (adds "rgf.spectra_energies" charge);
      Alcotest.(check int) "rgf.transmission_energies per call" ne
        (adds "rgf.transmission_energies" current));
  (* At width 3 each slot sweeps its first chunk's start again, so the
     count is [ne + 2] on every call, whatever the schedule. *)
  at_width 3 (fun () ->
      for call = 1 to 2 do
        Alcotest.(check int)
          (Printf.sprintf "rgf.spectra_energies, GNRFET_DOMAINS=3, call %d" call)
          (ne + 2)
          (adds "rgf.spectra_energies" charge);
        Alcotest.(check int)
          (Printf.sprintf "rgf.transmission_energies, GNRFET_DOMAINS=3, call %d" call)
          (ne + 2)
          (adds "rgf.transmission_energies" current)
      done);
  (* Allocation guard: this call measured 3,615 minor words with obs off
     and 3,619 with it on at width 1, mostly the per-chunk accumulators
     and the boxed Fermi factors; the bound is 4x the larger. *)
  at_width 1 @@ fun () ->
  List.iter
    (fun on ->
      Obs.set_enabled Obs.global on;
      let words = minor_words charge in
      if words > 4. *. 3_619. then
        Alcotest.failf "site_charge (obs %b) allocated %.0f minor words (bound %.0f)" on
          words (4. *. 3_619.))
    [ false; true ]

let test_site_charge_rejects_length_change () =
  (* A chain that changes length with energy would leave the per-site
     loops reading stale (shorter) or dropping (longer) diagonals. *)
  let egrid = Observables.energy_grid ~lo:(-0.5) ~hi:0.5 ~de:0.01 in
  let c20 = flat_chain ~n:20 () and c10 = flat_chain ~n:10 () in
  let shrinks e = if e < 0. then c20 e else c10 e in
  let grows e = if e < 0. then c10 e else c20 e in
  check_raises_invalid "20 -> 10 sites at E = 0" (fun () ->
      Observables.site_charge ~bias ~egrid ~midgap:(Array.make 20 0.) shrinks);
  check_raises_invalid "10 -> 20 sites at E = 0" (fun () ->
      Observables.site_charge ~bias ~egrid ~midgap:(Array.make 10 0.) grows)

let suite =
  suite @ block_suite
  @ [
      Alcotest.test_case "spectra bit-identical to two-pass oracle" `Quick
        test_spectra_matches_sequential_oracle;
      Alcotest.test_case "site_charge bit-identical to one-lane loop" `Quick
        test_site_charge_matches_oracle;
      Alcotest.test_case "site_charge rejects chain length change" `Quick
        test_site_charge_rejects_length_change;
    ]
