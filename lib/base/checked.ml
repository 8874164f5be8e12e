let overflow () = raise (Errors.Runtime_error Errors.Integer_overflow)
let div_zero () = raise (Errors.Runtime_error Errors.Division_by_zero)

(* The overflow tests, spelled identically in the JIT prelude
   (Ocaml_emit): no materialised booleans, and no division unless the
   product is near the edge of the range. *)

(* a sum overflows iff it differs in sign from both operands *)
let add_opt a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then None else Some s

(* a difference overflows iff the operands differ in sign and it differs
   from the minuend *)
let sub_opt a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then None else Some s

(* below 2^61 the float estimate of |a*b| (relative error under 2^-51)
   proves the product fits in 63 bits; otherwise check it exactly *)
let mul_opt a b =
  let p = a * b in
  if Float.abs (Float.of_int a *. Float.of_int b) < 0x1p61 then Some p
  else if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then None
  else Some p

let add a b = match add_opt a b with Some v -> v | None -> overflow ()
let sub a b = match sub_opt a b with Some v -> v | None -> overflow ()
let mul a b = match mul_opt a b with Some v -> v | None -> overflow ()
let neg a = if a = min_int then overflow () else -a

(* Wolfram's Quotient is floored division *)
let quotient a b =
  if b = 0 then div_zero ()
  else if a = min_int && b = -1 then overflow ()
  else begin
    let q = a / b in
    if (a < 0) <> (b < 0) && a mod b <> 0 then q - 1 else q
  end

let modulo a b =
  if b = 0 then div_zero ()
  else begin
    (* Wolfram's Mod has the sign of the divisor. *)
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r
  end

(* Round half to even, as Wolfram's Round *)
let round_half_even r =
  let f = Float.rem r 1.0 in
  if Float.abs f = 0.5 then int_of_float (2.0 *. Float.round (r /. 2.0))
  else int_of_float (Float.round r)

let pow b e =
  if e < 0 then raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "Power: negative exponent"));
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      if e lsr 1 = 0 then acc else go acc (mul b b) (e lsr 1)
    end
  in
  go 1 b e
