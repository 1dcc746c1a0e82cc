let check_lengths n l d u r name =
  if l <> n || d <> n || u <> n || r <> n then
    invalid_arg (name ^ ": length mismatch")

let zero_pivot solver row =
  Robust_error.raise_
    (Robust_error.Singular
       { solver; detail = Printf.sprintf "zero pivot at row %d" row })

let solve ~lower ~diag ~upper ~rhs =
  let n = Array.length diag in
  check_lengths n (Array.length lower) n (Array.length upper) (Array.length rhs)
    "Tridiag.solve";
  if n = 0 then [||]
  else begin
    let c' = Array.make n 0. and d' = Array.make n 0. in
    if Float.abs diag.(0) < Tol.pivot then zero_pivot "Tridiag.solve" 0;
    c'.(0) <- upper.(0) /. diag.(0);
    d'.(0) <- rhs.(0) /. diag.(0);
    for i = 1 to n - 1 do
      let m = diag.(i) -. (lower.(i) *. c'.(i - 1)) in
      if Float.abs m < Tol.pivot then zero_pivot "Tridiag.solve" i;
      c'.(i) <- upper.(i) /. m;
      d'.(i) <- (rhs.(i) -. (lower.(i) *. d'.(i - 1))) /. m
    done;
    let x = Array.make n 0. in
    x.(n - 1) <- d'.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
    done;
    x
  end

let solve_complex ~lower ~diag ~upper ~rhs =
  let n = Array.length diag in
  check_lengths n (Array.length lower) n (Array.length upper) (Array.length rhs)
    "Tridiag.solve_complex";
  if n = 0 then [||]
  else begin
    let open Complex in
    let c' = Array.make n zero and d' = Array.make n zero in
    if norm diag.(0) < Tol.pivot then zero_pivot "Tridiag.solve_complex" 0;
    c'.(0) <- div upper.(0) diag.(0);
    d'.(0) <- div rhs.(0) diag.(0);
    for i = 1 to n - 1 do
      let m = sub diag.(i) (mul lower.(i) c'.(i - 1)) in
      if norm m < Tol.pivot then zero_pivot "Tridiag.solve_complex" i;
      c'.(i) <- div upper.(i) m;
      d'.(i) <- div (sub rhs.(i) (mul lower.(i) d'.(i - 1))) m
    done;
    let x = Array.make n zero in
    x.(n - 1) <- d'.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- sub d'.(i) (mul c'.(i) x.(i + 1))
    done;
    x
  end
