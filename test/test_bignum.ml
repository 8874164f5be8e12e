(* Arbitrary-precision integers (S1): unit cases at the machine-word
   boundary plus properties checked against native int arithmetic. *)

open Wolf_base

let b = Bignum.of_int
let bs = Bignum.of_string
let check_str msg expected n = Alcotest.(check string) msg expected (Bignum.to_string n)

let test_of_int_roundtrip () =
  List.iter
    (fun i ->
       Alcotest.(check (option int)) (string_of_int i) (Some i)
         (Bignum.to_int_opt (b i)))
    [ 0; 1; -1; 42; -42; 999_999_999; 1_000_000_000; -1_000_000_001;
      max_int; min_int; max_int - 1; min_int + 1 ]

let test_to_string () =
  check_str "zero" "0" Bignum.zero;
  check_str "small" "12345" (b 12345);
  check_str "negative" "-987654321" (b (-987654321));
  check_str "max_int" (string_of_int max_int) (b max_int);
  check_str "min_int" (string_of_int min_int) (b min_int)

let test_of_string () =
  check_str "roundtrip" "123456789012345678901234567890"
    (bs "123456789012345678901234567890");
  check_str "negative big" "-123456789012345678901234567890"
    (bs "-123456789012345678901234567890");
  check_str "leading +" "17" (bs "+17");
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_string: empty")
    (fun () -> ignore (bs ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bignum.of_string: non-digit")
    (fun () -> ignore (bs "12a3"))

let test_add_carry () =
  check_str "carry chain" "1000000000000000000"
    (Bignum.add (b 999_999_999_999_999_999) (b 1));
  (* OCaml ints are 63-bit: max_int = 2^62 - 1 *)
  check_str "overflow max_int" "9223372036854775806"
    (Bignum.add (b max_int) (b max_int));
  check_str "min_int doubles" "-9223372036854775808"
    (Bignum.add (b min_int) (b min_int))

let test_sub_signs () =
  check_str "a-b positive" "1" (Bignum.sub (b 10) (b 9));
  check_str "a-b negative" "-1" (Bignum.sub (b 9) (b 10));
  check_str "cross zero" "-20" (Bignum.sub (b (-10)) (b 10));
  Alcotest.(check bool) "x - x = 0" true
    (Bignum.is_zero (Bignum.sub (bs "123456789123456789123") (bs "123456789123456789123")))

let test_mul () =
  check_str "square of max_int" "21267647932558653957237540927630737409"
    (Bignum.mul (b max_int) (b max_int));
  check_str "sign" "-6" (Bignum.mul (b 2) (b (-3)));
  check_str "zero" "0" (Bignum.mul (b 0) (bs "999999999999999999999"))

let test_divmod () =
  let q, r = Bignum.divmod (bs "1000000000000000000000") (b 7) in
  check_str "quot" "142857142857142857142" q;
  check_str "rem" "6" r;
  let q, r = Bignum.divmod (b (-100)) (b 7) in
  check_str "neg quot" "-14" q;
  check_str "neg rem (sign of dividend)" "-2" r;
  let q, r = Bignum.divmod (bs "123456789012345678901234567890") (bs "9876543210987654321") in
  check_str "multi-limb quot" "12499999886" q;
  check_str "multi-limb rem" "925925941327160484" r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod (b 1) Bignum.zero))

let test_pow () =
  check_str "2^100" "1267650600228229401496703205376" (Bignum.pow (b 2) 100);
  check_str "(-3)^3" "-27" (Bignum.pow (b (-3)) 3);
  check_str "x^0" "1" (Bignum.pow (bs "99999999999999") 0);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bignum.pow: negative exponent")
    (fun () -> ignore (Bignum.pow (b 2) (-1)))

let test_compare () =
  Alcotest.(check int) "eq" 0 (Bignum.compare (b 5) (b 5));
  Alcotest.(check bool) "lt" true (Bignum.compare (b (-5)) (b 5) < 0);
  Alcotest.(check bool) "big vs small" true
    (Bignum.compare (bs "99999999999999999999") (b max_int) > 0);
  Alcotest.(check bool) "negative big smallest" true
    (Bignum.compare (bs "-99999999999999999999") (b min_int) < 0)

let test_to_int_opt_bounds () =
  Alcotest.(check (option int)) "fits" (Some max_int)
    (Bignum.to_int_opt (bs (string_of_int max_int)));
  Alcotest.(check (option int)) "one above max_int" None
    (Bignum.to_int_opt (Bignum.add (b max_int) (b 1)));
  Alcotest.(check (option int)) "min_int exact" (Some min_int)
    (Bignum.to_int_opt (bs (string_of_int min_int)));
  Alcotest.(check (option int)) "one below min_int" None
    (Bignum.to_int_opt (Bignum.sub (b min_int) (b 1)))

(* properties vs native arithmetic on small operands *)
let small = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let prop_add =
  QCheck2.Test.make ~name:"bignum add agrees with int" ~count:500
    QCheck2.Gen.(pair small small)
    (fun (x, y) -> Bignum.to_int_opt (Bignum.add (b x) (b y)) = Some (x + y))

let prop_mul =
  QCheck2.Test.make ~name:"bignum mul agrees with int" ~count:500
    QCheck2.Gen.(pair small small)
    (fun (x, y) -> Bignum.to_int_opt (Bignum.mul (b x) (b y)) = Some (x * y))

let prop_divmod =
  QCheck2.Test.make ~name:"divmod is truncated division" ~count:500
    QCheck2.Gen.(pair small small)
    (fun (x, y) ->
       y = 0
       || (let q, r = Bignum.divmod (b x) (b y) in
           Bignum.to_int_opt q = Some (x / y) && Bignum.to_int_opt r = Some (x mod y)))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"of_string/to_string roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
       let s = String.concat "" (List.map string_of_int digits) in
       let canonical = Bignum.to_string (Bignum.of_string s) in
       (* canonical form strips leading zeros *)
       Bignum.to_string (Bignum.of_string canonical) = canonical)

let prop_add_assoc =
  QCheck2.Test.make ~name:"addition associativity (multi-limb)" ~count:300
    QCheck2.Gen.(triple (int_range 0 max_int) (int_range 0 max_int) (int_range 0 max_int))
    (fun (x, y, z) ->
       Bignum.equal
         (Bignum.add (b x) (Bignum.add (b y) (b z)))
         (Bignum.add (Bignum.add (b x) (b y)) (b z)))

(* Checked add/sub/mul raise exactly when the exact (Bignum) result leaves
   OCaml's 63-bit int range, and otherwise return it.  Operands mix the
   range edges (0, +-1, +-2^31, min_int, max_int, the neighbours of +-2^62
   and of the float fast path's 2^61 bound) with random words shifted to
   every magnitude. *)
let overflow_edges =
  let p31 = 1 lsl 31 and p61 = 1 lsl 61 in
  [ 0; 1; -1; 2; -2; p31; -p31; p31 - 1; p31 + 1; -p31 - 1; -p31 + 1;
    p61; -p61; p61 - 1; p61 + 1; -p61 - 1; max_int; max_int - 1; min_int;
    min_int + 1; 3037000499; -3037000499 ]

let checked_agrees (name, checked, opt, exact) (a, x) =
  let want = Bignum.to_int_opt (exact (b a) (b x)) in
  let raised =
    match checked a x with
    | v -> Some v
    | exception Errors.Runtime_error Errors.Integer_overflow -> None
  in
  if raised = want && opt a x = want then true
  else
    QCheck2.Test.fail_reportf "%s %d %d: checked %s, exact %s" name a x
      (Option.fold ~none:"raised" ~some:string_of_int raised)
      (Option.fold ~none:"out of range" ~some:string_of_int want)

let checked_ops =
  [ ("add", Checked.add, Checked.add_opt, Bignum.add);
    ("sub", Checked.sub, Checked.sub_opt, Bignum.sub);
    ("mul", Checked.mul, Checked.mul_opt, Bignum.mul) ]

let test_checked_edges () =
  List.iter
    (fun op ->
       List.iter
         (fun a -> List.iter (fun x -> ignore (checked_agrees op (a, x))) overflow_edges)
         overflow_edges)
    checked_ops

let prop_checked_vs_bignum =
  let operand =
    QCheck2.Gen.(
      oneof
        [ oneofl overflow_edges;
          map2 (fun w k -> w asr k) int (int_range 0 62) ])
  in
  QCheck2.Test.make ~name:"checked add/sub/mul raise iff the result leaves the int range"
    ~count:2000 QCheck2.Gen.(pair operand operand)
    (fun ops -> List.for_all (fun op -> checked_agrees op ops) checked_ops)

let tests =
  [ Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "checked arithmetic at the range edges" `Quick
      test_checked_edges;
    QCheck_alcotest.to_alcotest prop_checked_vs_bignum;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "add carries" `Quick test_add_carry;
    Alcotest.test_case "sub signs" `Quick test_sub_signs;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "to_int_opt bounds" `Quick test_to_int_opt_bounds;
    QCheck_alcotest.to_alcotest prop_add;
    QCheck_alcotest.to_alcotest prop_mul;
    QCheck_alcotest.to_alcotest prop_divmod;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_add_assoc ]
