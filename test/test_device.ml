(* Integration tests of the self-consistent device solver and the lookup
   tables, on a reduced (6 nm, coarse-energy-grid) device so the whole
   suite stays fast. *)

open Support

let tiny = tiny_device ()

let test_scf_converges () =
  let s = Scf.solve tiny ~vg:0.3 ~vd:0.3 in
  Alcotest.(check bool) "converged" true (s.Scf.residual <= 1e-3);
  Alcotest.(check bool) "few iterations" true (s.Scf.iterations < 120)

let test_scf_zero_vd_zero_current () =
  let s = Scf.solve tiny ~vg:0.4 ~vd:0. in
  Alcotest.(check bool) "I(vd=0) ~ 0" true (Float.abs s.Scf.current < 1e-12)

let test_scf_ambipolar_minimum () =
  let vd = 0.4 in
  let vgs = Vec.linspace 0. 0.6 13 in
  let init = ref None in
  let ids =
    Array.map
      (fun vg ->
        let s = Scf.solve ?init:!init tiny ~vg ~vd in
        init := Some s.Scf.potential;
        s.Scf.current)
      vgs
  in
  let k = Vec.argmin ids in
  (* Minimum leakage near VG = VD/2 (Sec 2 of the paper). *)
  approx ~eps:0.13 "min near VD/2" (vd /. 2.) vgs.(k);
  (* Current rises on both sides (ambipolar). *)
  Alcotest.(check bool) "electron branch rises" true (ids.(12) > 3. *. ids.(k));
  Alcotest.(check bool) "hole branch rises" true (ids.(0) > 3. *. ids.(k))

let test_scf_electron_branch_monotone () =
  let vd = 0.4 in
  let init = ref None in
  let prev = ref 0. in
  Array.iter
    (fun vg ->
      let s = Scf.solve ?init:!init tiny ~vg ~vd in
      init := Some s.Scf.potential;
      Alcotest.(check bool)
        (Printf.sprintf "monotone at %.2f" vg)
        true
        (s.Scf.current >= !prev *. 0.98);
      prev := s.Scf.current)
    [| 0.3; 0.4; 0.5; 0.6; 0.7 |]

let test_scf_charge_sign_flip () =
  let vd = 0.3 in
  let hole_side = Scf.solve tiny ~vg:(-0.1) ~vd in
  let electron_side = Scf.solve tiny ~vg:0.6 ~vd in
  Alcotest.(check bool) "holes positive charge" true (hole_side.Scf.charge > 0.);
  Alcotest.(check bool) "electrons negative charge" true (electron_side.Scf.charge < 0.)

let test_scf_gate_offset_shift () =
  (* I(vg; offset) = I(vg + offset; 0) to table accuracy. *)
  let shifted = { tiny with Params.gate_offset = 0.15 } in
  let a = Scf.solve tiny ~vg:0.55 ~vd:0.4 in
  let b = Scf.solve shifted ~vg:0.4 ~vd:0.4 in
  approx_rel ~rel:0.05 "offset equals vg shift" a.Scf.current b.Scf.current

let test_scf_impurity_barrier () =
  (* A negative impurity near the source raises the conduction band and
     suppresses the electron on-current.  The impurity is placed
     proportionally into this 6 nm test channel (the paper-scale default
     position would sit mid-channel here, where the ambipolar hole branch
     can compensate). *)
  let dirty =
    {
      tiny with
      Params.impurities =
        [ { Impurity.charge = -2.; position = 0.8e-9; distance = 0.4e-9 } ];
    }
  in
  let clean_sol = Scf.solve tiny ~vg:0.5 ~vd:0.4 in
  let dirty_sol = Scf.solve dirty ~vg:0.5 ~vd:0.4 in
  let clean_peak = Vec.maximum (Scf.conduction_band_profile tiny clean_sol) in
  let dirty_peak = Vec.maximum (Scf.conduction_band_profile dirty dirty_sol) in
  Alcotest.(check bool) "barrier raised" true (dirty_peak > clean_peak +. 0.05);
  Alcotest.(check bool) "current suppressed" true
    (dirty_sol.Scf.current < 0.75 *. clean_sol.Scf.current)

let test_scf_warm_start_consistency () =
  let cold = Scf.solve tiny ~vg:0.45 ~vd:0.35 in
  let neighbour = Scf.solve tiny ~vg:0.4 ~vd:0.35 in
  let warm = Scf.solve ~init:neighbour.Scf.potential tiny ~vg:0.45 ~vd:0.35 in
  approx_rel ~rel:0.03 "same answer from warm start" cold.Scf.current warm.Scf.current

let tiny_grid =
  { Iv_table.vg_min = -0.1; vg_max = 0.8; n_vg = 10; vd_max = 0.6; n_vd = 5 }

let test_iv_table_roundtrip () =
  let t = Iv_table.generate ~grid:tiny_grid tiny in
  Alcotest.(check int) "vg points" tiny_grid.n_vg (Array.length t.Iv_table.vg);
  Alcotest.(check int) "vd points" tiny_grid.n_vd (Array.length t.Iv_table.vd);
  (* Node values are reproduced exactly by the interpolant. *)
  let vg = t.Iv_table.vg.(4) and vd = t.Iv_table.vd.(2) in
  approx_rel ~rel:1e-12 "node value" t.Iv_table.current.(4).(2)
    (Iv_table.current_at t ~vg ~vd);
  (* Interpolated values sit between neighbours. *)
  let mid = Iv_table.current_at t ~vg:(0.5 *. (t.Iv_table.vg.(4) +. t.Iv_table.vg.(5))) ~vd in
  let lo = Float.min t.Iv_table.current.(4).(2) t.Iv_table.current.(5).(2) in
  let hi = Float.max t.Iv_table.current.(4).(2) t.Iv_table.current.(5).(2) in
  Alcotest.(check bool) "between nodes" true (mid >= lo -. 1e-18 && mid <= hi +. 1e-18)

let test_iv_table_derivative_consistency () =
  let t = Iv_table.generate ~grid:tiny_grid tiny in
  let vg = 0.35 and vd = 0.3 in
  let h = 1e-4 in
  let fd =
    (Iv_table.charge_at t ~vg:(vg +. h) ~vd -. Iv_table.charge_at t ~vg:(vg -. h) ~vd)
    /. (2. *. h)
  in
  approx_rel ~rel:1e-6 "dq/dvg finite difference" fd (Iv_table.dq_dvg t ~vg ~vd)

let test_iv_table_negative_vd_rejected () =
  let t = Iv_table.generate ~grid:tiny_grid tiny in
  check_raises_invalid "vd < 0" (fun () ->
      ignore (Iv_table.current_at t ~vg:0.3 ~vd:(-0.1)))

let test_vt_extract_from_curve_linear () =
  (* For an exactly linear branch I = g (V - VT), the extrapolation method
     recovers VT exactly. *)
  let vt_true = 0.27 in
  let vg = Vec.linspace 0.3 0.8 11 in
  let id = Array.map (fun v -> 2e-6 *. (v -. vt_true)) vg in
  approx ~eps:1e-6 "linear branch" vt_true (Vt.extract_from_curve ~vg ~id)

let test_vt_extract_from_table () =
  let t = Iv_table.generate ~grid:tiny_grid tiny in
  let vt = Vt.extract_from_table t in
  Alcotest.(check bool) "vt in a sensible window" true (vt > 0.1 && vt < 0.65)

let with_temp_cache f =
  let dir = Filename.temp_file "gnrfet_tables" "" in
  Sys.remove dir;
  Unix.putenv "GNRFET_TABLE_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GNRFET_TABLE_DIR" "_tables";
      Table_cache.clear_memory ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Table_cache.clear_memory ();
      f ())

let test_table_cache_roundtrip () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  with_temp_cache (fun () ->
      Alcotest.(check bool) "miss before" true
        (Option.is_none (Table_cache.lookup ~grid:tiny_grid tiny));
      let t1 = Table_cache.get ~grid:tiny_grid tiny in
      (* Second get: memory hit, same values. *)
      let t2 = Table_cache.get ~grid:tiny_grid tiny in
      approx "memory hit" t1.Iv_table.current.(3).(2) t2.Iv_table.current.(3).(2);
      (* Clear memory: disk hit. *)
      Table_cache.clear_memory ();
      match Table_cache.lookup ~grid:tiny_grid tiny with
      | Some t3 ->
        approx "disk hit" t1.Iv_table.current.(3).(2) t3.Iv_table.current.(3).(2)
      | None -> Alcotest.fail "expected a disk hit")

let test_table_cache_distinguishes_devices () =
  with_temp_cache (fun () ->
      let t9 = Table_cache.get ~grid:tiny_grid (tiny_device ~gnr_index:9 ()) in
      let t12 = Table_cache.get ~grid:tiny_grid tiny in
      Alcotest.(check bool) "different devices differ" true
        (t9.Iv_table.current.(8).(3) <> t12.Iv_table.current.(8).(3)))

let test_table_cache_hit_miss_accounting () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  (* Satellite of the observability PR: the second identical get_many
     must be 100% cache hits — zero misses, zero Iv_table generations —
     and the obs counters are the proof. *)
  with_temp_cache (fun () ->
      let old = Obs.enabled Obs.global in
      Obs.set_enabled Obs.global true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global old)
      @@ fun () ->
      let devices = [ tiny; tiny_device ~gnr_index:9 () ] in
      let read name = Obs.counter_value name in
      let snap () =
        ( read "table_cache.memory_hits",
          read "table_cache.disk_hits",
          read "table_cache.misses",
          read "table_cache.generates",
          read "iv_table.generates" )
      in
      let mh0, dh0, m0, g0, ivg0 = snap () in
      let first = Table_cache.get_many ~grid:tiny_grid devices in
      let mh1, dh1, m1, g1, ivg1 = snap () in
      (* Fresh batch: one miss + one generate per device, plus one memory
         hit each when the result list is assembled. *)
      Alcotest.(check int) "first: misses" 2 (m1 - m0);
      Alcotest.(check int) "first: cache generates" 2 (g1 - g0);
      Alcotest.(check int) "first: iv_table generates" 2 (ivg1 - ivg0);
      Alcotest.(check int) "first: disk hits" 0 (dh1 - dh0);
      Alcotest.(check int) "first: memory hits" 2 (mh1 - mh0);
      let second = Table_cache.get_many ~grid:tiny_grid devices in
      let mh2, dh2, m2, g2, ivg2 = snap () in
      (* Identical request: every lookup is a memory hit (two per device:
         the missing-filter probe and the result-assembly get). *)
      Alcotest.(check int) "second: zero misses" 0 (m2 - m1);
      Alcotest.(check int) "second: zero cache generates" 0 (g2 - g1);
      Alcotest.(check int) "second: zero iv_table generates" 0 (ivg2 - ivg1);
      Alcotest.(check int) "second: zero disk hits" 0 (dh2 - dh1);
      Alcotest.(check int) "second: memory hits" 4 (mh2 - mh1);
      (* And the cached tables are the same values. *)
      List.iter2
        (fun (a : Iv_table.t) (b : Iv_table.t) ->
          approx "same table values" a.Iv_table.current.(3).(2)
            b.Iv_table.current.(3).(2))
        first second)

let test_get_many_dedups_duplicates () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  (* PR 5 satellite: duplicate Params.t entries in one batch are
     generated once and counted in table_cache.deduped, and the result
     list still matches the request order. *)
  with_temp_cache (fun () ->
      let old = Obs.enabled Obs.global in
      Obs.set_enabled Obs.global true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled Obs.global old)
      @@ fun () ->
      let other = tiny_device ~gnr_index:9 () in
      let read name = Obs.counter_value name in
      let d0 = read "table_cache.deduped" and g0 = read "table_cache.generates" in
      let results =
        Table_cache.get_many ~grid:tiny_grid [ tiny; other; tiny; tiny ]
      in
      Alcotest.(check int) "two duplicates dropped" 2
        (read "table_cache.deduped" - d0);
      Alcotest.(check int) "only the two distinct devices generated" 2
        (read "table_cache.generates" - g0);
      Alcotest.(check int) "result per request" 4 (List.length results);
      match results with
      | [ a; b; c; d ] ->
        Alcotest.(check string) "order: dup of first" a.Iv_table.key
          c.Iv_table.key;
        Alcotest.(check string) "order: dup of first (2)" a.Iv_table.key
          d.Iv_table.key;
        Alcotest.(check bool) "order: second distinct" true
          (b.Iv_table.key <> a.Iv_table.key)
      | _ -> Alcotest.fail "unreachable")

let test_params_cache_key_stability () =
  let a = Params.cache_key (Params.default ()) in
  let b = Params.cache_key (Params.default ()) in
  Alcotest.(check string) "stable" a b;
  let c = Params.cache_key (Params.with_impurity_charge (Params.default ()) 1.) in
  Alcotest.(check bool) "impurity changes key" true (a <> c);
  (* On-disk tables are addressed by a digest of the full key, so its
     exact text is pinned: a format change orphans every cached table. *)
  let p = Params.default () in
  let micro =
    { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }
  in
  let device =
    "v3-pt-N12-L1.5e-08-tox1.5e-09-eps3.9-T300-m2-off0-g1-wf5e-10-de0.002-em0.45"
  in
  let default_key = "v2|" ^ device ^ "-[]|vg-0.25:1.05:53-vd0.8:17" in
  Alcotest.(check string) "default key" default_key (Table_cache.key p);
  Alcotest.(check string) "explicit default grid" default_key
    (Table_cache.key ~grid:Iv_table.default_grid p);
  Alcotest.(check string) "micro grid key"
    ("v2|" ^ device ^ "-[]|vg0:0.4:3-vd0.3:2")
    (Table_cache.key ~grid:micro p);
  Alcotest.(check string) "impurity key"
    ("v2|" ^ device ^ "-[-1@2e-09/4e-10/e4/s2.5e-09]|vg0:0.4:3-vd0.3:2")
    (Table_cache.key ~grid:micro (Params.with_impurity_charge p (-1.)))

let test_get_many_nested_bits () =
  skip_if_fault_armed [ "table_cache.read"; "scf.charge"; "scf.poisson" ];
  (* [get_many] fans its missing devices out over the pool and each
     device's energy runs nest in that same pool: the tables must carry
     the bits of each device generated alone on one domain. *)
  let micro_grid =
    { Iv_table.vg_min = 0.; vg_max = 0.4; n_vg = 3; vd_max = 0.3; n_vd = 2 }
  in
  let devices = [ tiny; tiny_device ~gnr_index:9 () ] in
  let bits rows = Array.map (Array.map Int64.bits_of_float) rows in
  let alone =
    at_width 1 (fun () -> List.map (Iv_table.generate ~grid:micro_grid) devices)
  in
  let batch =
    with_temp_cache (fun () ->
        at_width 3 (fun () -> Table_cache.get_many ~grid:micro_grid devices))
  in
  List.iter2
    (fun (a : Iv_table.t) (b : Iv_table.t) ->
      Alcotest.(check (array (array int64)))
        (a.Iv_table.key ^ ": current bits") (bits a.Iv_table.current)
        (bits b.Iv_table.current);
      Alcotest.(check (array (array int64)))
        (a.Iv_table.key ^ ": charge bits") (bits a.Iv_table.charge)
        (bits b.Iv_table.charge))
    alone batch;
  Alcotest.(check int) "no pool domain alive afterwards" 0
    (Parallel.live_domains ())

let suite =
  [
    Alcotest.test_case "scf converges" `Quick test_scf_converges;
    Alcotest.test_case "zero vd, zero current" `Quick test_scf_zero_vd_zero_current;
    Alcotest.test_case "ambipolar minimum" `Quick test_scf_ambipolar_minimum;
    Alcotest.test_case "electron branch monotone" `Quick test_scf_electron_branch_monotone;
    Alcotest.test_case "charge sign flip" `Quick test_scf_charge_sign_flip;
    Alcotest.test_case "gate offset shift" `Quick test_scf_gate_offset_shift;
    Alcotest.test_case "impurity barrier" `Quick test_scf_impurity_barrier;
    Alcotest.test_case "warm start consistency" `Quick test_scf_warm_start_consistency;
    Alcotest.test_case "iv table roundtrip" `Quick test_iv_table_roundtrip;
    Alcotest.test_case "iv table derivatives" `Quick test_iv_table_derivative_consistency;
    Alcotest.test_case "iv table vd<0 rejected" `Quick test_iv_table_negative_vd_rejected;
    Alcotest.test_case "vt from linear curve" `Quick test_vt_extract_from_curve_linear;
    Alcotest.test_case "vt from table" `Quick test_vt_extract_from_table;
    Alcotest.test_case "table cache roundtrip" `Quick test_table_cache_roundtrip;
    Alcotest.test_case "table cache device keying" `Quick test_table_cache_distinguishes_devices;
    Alcotest.test_case "table cache hit/miss accounting" `Quick
      test_table_cache_hit_miss_accounting;
    Alcotest.test_case "get_many dedups duplicates" `Quick
      test_get_many_dedups_duplicates;
    Alcotest.test_case "cache key stability" `Quick test_params_cache_key_stability;
    Alcotest.test_case "get_many nests energy runs bit-identically" `Quick
      test_get_many_nested_bits;
  ]
