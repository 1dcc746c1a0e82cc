type device = {
  blocks : Cmatrix.t array;
  couplings : Cmatrix.t array;
  sigma_l : Cmatrix.t;
  sigma_r : Cmatrix.t;
}

let gamma_of sigma =
  (* Γ = i (Σ - Σ†) *)
  Cmatrix.scale { Complex.re = 0.; im = 1. } (Cmatrix.sub sigma (Cmatrix.adjoint sigma))

(* Both entry points vet the whole device before any arithmetic, so a
   malformed device fails the same way whichever one it reaches. *)
let validate dev =
  let nb = Array.length dev.blocks in
  if nb < 1 then invalid_arg "Rgf_block: empty device";
  if Array.length dev.couplings <> nb - 1 then
    invalid_arg "Rgf_block: coupling count mismatch";
  let m, mc = Cmatrix.dims dev.blocks.(0) in
  if m <> mc then invalid_arg "Rgf_block: blocks must be square";
  Array.iter
    (fun b -> if Cmatrix.dims b <> (m, m) then invalid_arg "Rgf_block: block dims differ")
    dev.blocks;
  Array.iter
    (fun h ->
      if Cmatrix.dims h <> (m, m) then invalid_arg "Rgf_block: coupling dims differ")
    dev.couplings;
  if Cmatrix.dims dev.sigma_l <> (m, m) || Cmatrix.dims dev.sigma_r <> (m, m) then
    invalid_arg "Rgf_block: self-energy dims differ";
  (nb, m)

(* [a i] = (e + iη) I - H_i - Σ_L[i=0] - Σ_R[i=nb-1]: the inverse of the
   isolated block's Green's function, with the leads folded in. *)
let effective_block ~eta dev ~nb ~m e =
  let zi = Cmatrix.scale { Complex.re = e; im = eta } (Cmatrix.identity m) in
  fun i ->
    let base = Cmatrix.sub zi dev.blocks.(i) in
    let base = if i = 0 then Cmatrix.sub base dev.sigma_l else base in
    if i = nb - 1 then Cmatrix.sub base dev.sigma_r else base

(* Both solvers allocate freely through the Cmatrix API: they are the
   atomistic oracle the mode-space chains are tested against, not a hot
   path, so the hot-alloc lint rule is suppressed line by line. *)

let transmission ?(eta = 1e-6) dev e =
  let nb, m = validate dev in
  let a = effective_block ~eta dev ~nb ~m e in
  (* Left sweep of left-connected Green's functions, tracking the
     propagator product G_{0,n-1}. *)
  let gl = ref (Cmatrix.inverse (a 0)) in
  let prod = ref !gl in
  for i = 1 to nb - 1 do
    let h = dev.couplings.(i - 1) in
    (* gnrlint: allow hot-alloc — naive reference oracle *)
    let hdag = Cmatrix.adjoint h in
    (* gnrlint: allow hot-alloc *)
    let self = Cmatrix.mul hdag (Cmatrix.mul !gl h) in
    (* gnrlint: allow hot-alloc *)
    gl := Cmatrix.inverse (Cmatrix.sub (a i) self);
    (* gnrlint: allow hot-alloc *)
    prod := Cmatrix.mul !prod (Cmatrix.mul h !gl)
  done;
  let g0n = !prod in
  let gl_mat = gamma_of dev.sigma_l and gr_mat = gamma_of dev.sigma_r in
  let t =
    Cmatrix.trace
      (Cmatrix.mul gl_mat (Cmatrix.mul g0n (Cmatrix.mul gr_mat (Cmatrix.adjoint g0n))))
  in
  t.Complex.re

type spectra = {
  t_coh : float;
  a1 : float array array;
  a2 : float array array;
}

let spectra ?(eta = 1e-6) dev e =
  let nb, m = validate dev in
  let a = effective_block ~eta dev ~nb ~m e in
  (* Left- and right-connected Green's functions. *)
  let gl = Array.make nb (Cmatrix.identity m) in
  gl.(0) <- Cmatrix.inverse (a 0);
  for i = 1 to nb - 1 do
    let h = dev.couplings.(i - 1) in
    (* gnrlint: allow hot-alloc — naive reference oracle *)
    let hdag = Cmatrix.adjoint h in
    (* gnrlint: allow hot-alloc *)
    let self = Cmatrix.mul hdag (Cmatrix.mul gl.(i - 1) h) in
    (* gnrlint: allow hot-alloc *)
    gl.(i) <- Cmatrix.inverse (Cmatrix.sub (a i) self)
  done;
  let gr = Array.make nb (Cmatrix.identity m) in
  gr.(nb - 1) <- Cmatrix.inverse (a (nb - 1));
  for i = nb - 2 downto 0 do
    let h = dev.couplings.(i) in
    (* gnrlint: allow hot-alloc — naive reference oracle *)
    let hdag = Cmatrix.adjoint h in
    (* gnrlint: allow hot-alloc *)
    let self = Cmatrix.mul h (Cmatrix.mul gr.(i + 1) hdag) in
    (* gnrlint: allow hot-alloc *)
    gr.(i) <- Cmatrix.inverse (Cmatrix.sub (a i) self)
  done;
  (* First-column blocks G_{i,0}: G_{0,0} fully connected via gr.(0)'s
     complement; build with the standard relations. *)
  let g00 =
    let base = a 0 in
    let self =
      if nb > 1 then
        let h = dev.couplings.(0) in
        Cmatrix.mul h (Cmatrix.mul gr.(1) (Cmatrix.adjoint h))
      else Cmatrix.create m m
    in
    Cmatrix.inverse (Cmatrix.sub base self)
  in
  let col0 = Array.make nb g00 in
  for i = 1 to nb - 1 do
    let h = dev.couplings.(i - 1) in
    (* G_{i,0} = gR_i H_{i,i-1} G_{i-1,0}; H_{i,i-1} = H_{i-1,i}^dag. *)
    (* gnrlint: allow hot-alloc — naive reference oracle *)
    col0.(i) <- Cmatrix.mul gr.(i) (Cmatrix.mul (Cmatrix.adjoint h) col0.(i - 1))
  done;
  (* Last-column blocks G_{i,n-1}. *)
  let gnn =
    let base = a (nb - 1) in
    let self =
      if nb > 1 then
        let h = dev.couplings.(nb - 2) in
        Cmatrix.mul (Cmatrix.adjoint h) (Cmatrix.mul gl.(nb - 2) h)
      else Cmatrix.create m m
    in
    Cmatrix.inverse (Cmatrix.sub base self)
  in
  let coln = Array.make nb gnn in
  for i = nb - 2 downto 0 do
    let h = dev.couplings.(i) in
    (* gnrlint: allow hot-alloc — naive reference oracle *)
    coln.(i) <- Cmatrix.mul gl.(i) (Cmatrix.mul h coln.(i + 1))
  done;
  let gamma_l = gamma_of dev.sigma_l and gamma_r = gamma_of dev.sigma_r in
  let diag_of g gamma =
    (* diag(G Gamma G^dag), real and non-negative. *)
    let prod = Cmatrix.mul g (Cmatrix.mul gamma (Cmatrix.adjoint g)) in
    Array.map (fun z -> z.Complex.re) (Cmatrix.diag prod)
  in
  let a1 = Array.map (fun g -> diag_of g gamma_l) col0 in
  let a2 = Array.map (fun g -> diag_of g gamma_r) coln in
  let t =
    Cmatrix.trace
      (Cmatrix.mul gamma_l
         (Cmatrix.mul coln.(0) (Cmatrix.mul gamma_r (Cmatrix.adjoint coln.(0)))))
  in
  { t_coh = t.Complex.re; a1; a2 }

let ideal_gnr_device ?(n_cells = 12) n e =
  let tb = Tight_binding.make n in
  let h00 = Cmatrix.of_real tb.Tight_binding.h00 in
  let h01 = Cmatrix.of_real tb.Tight_binding.h01 in
  let h10 = Cmatrix.adjoint h01 in
  (* Left lead extends via h10 away from the device, right lead via h01. *)
  let gs_l = Self_energy.sancho_rubio ~h00 ~h01:h10 e in
  let sigma_l = Cmatrix.mul h10 (Cmatrix.mul gs_l h01) in
  let gs_r = Self_energy.sancho_rubio ~h00 ~h01 e in
  let sigma_r = Cmatrix.mul h01 (Cmatrix.mul gs_r h10) in
  {
    blocks = Array.make n_cells h00;
    couplings = Array.make (max 0 (n_cells - 1)) h01;
    sigma_l;
    sigma_r;
  }

let ideal_gnr_transmission ?eta ?n_cells n e =
  transmission ?eta (ideal_gnr_device ?n_cells n e) e
