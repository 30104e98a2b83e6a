let bi = Bigint.of_int

let check_hex msg expected v = Alcotest.(check string) msg expected (Bigint.to_hex v)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (Bigint.to_int (bi n)))
    [ 0; 1; 2; 12345; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 1 lsl 40; max_int ]

let test_hex_roundtrip () =
  check_hex "zero" "0" Bigint.zero;
  check_hex "255" "ff" (bi 255);
  check_hex "2^64" "10000000000000000" (Bigint.of_hex "10000000000000000");
  let big = "deadbeefcafebabe0123456789abcdef" in
  Alcotest.(check string) "big" big (Bigint.to_hex (Bigint.of_hex big));
  Alcotest.(check string) "0x prefix" "ff" (Bigint.to_hex (Bigint.of_hex "0xFF"))

let test_add_sub () =
  let a = Bigint.of_hex "ffffffffffffffffffffffff" in
  check_hex "add 1" "1000000000000000000000000" (Bigint.add a Bigint.one);
  check_hex "sub back" "ffffffffffffffffffffffff" (Bigint.sub (Bigint.add a Bigint.one) Bigint.one);
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.sub: negative result") (fun () ->
      ignore (Bigint.sub Bigint.one Bigint.two))

let test_mul_div () =
  let a = Bigint.of_hex "123456789abcdef0123456789abcdef" in
  let b = Bigint.of_hex "fedcba9876543210" in
  let p = Bigint.mul a b in
  let q, r = Bigint.divmod p b in
  Alcotest.(check bool) "q = a" true (Bigint.equal q a);
  Alcotest.(check bool) "r = 0" true (Bigint.is_zero r);
  let q2, r2 = Bigint.divmod (Bigint.add p (bi 7)) b in
  Alcotest.(check bool) "q2 = a" true (Bigint.equal q2 a);
  Alcotest.(check (option int)) "r2 = 7" (Some 7) (Bigint.to_int r2)

let test_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () -> ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_shift () =
  let a = Bigint.of_hex "123456789" in
  check_hex "shl 4" "1234567890" (Bigint.shift_left a 4);
  check_hex "shr 4" "12345678" (Bigint.shift_right a 4);
  check_hex "shl 52" "1234567890000000000000" (Bigint.shift_left a 52);
  Alcotest.(check bool) "shr all" true (Bigint.is_zero (Bigint.shift_right a 36))

let test_modpow () =
  (* 3^100 mod 101 = 1 by Fermat (101 prime, 100 = 101-1) *)
  let r = Bigint.modpow ~base:(bi 3) ~exponent:(bi 100) ~modulus:(bi 101) in
  Alcotest.(check (option int)) "fermat" (Some 1) (Bigint.to_int r);
  let r2 = Bigint.modpow ~base:(bi 2) ~exponent:(bi 10) ~modulus:(bi 10000) in
  Alcotest.(check (option int)) "2^10" (Some 1024) (Bigint.to_int r2);
  let r3 = Bigint.modpow ~base:(bi 7) ~exponent:Bigint.zero ~modulus:(bi 13) in
  Alcotest.(check (option int)) "x^0" (Some 1) (Bigint.to_int r3);
  (* Moduli 1, 2 and 3 (1 gives 0 whatever the power), base 0, base =
     modulus, and exponents 0 and 1, on small moduli against [int]
     arithmetic and on the Oakley 768-bit prime. *)
  List.iter
    (fun m ->
      List.iter
        (fun (b, e) ->
          let want = if m = 1 then 0 else if e = 0 then 1 else b mod m in
          Alcotest.(check (option int))
            (Printf.sprintf "%d^%d mod %d" b e m)
            (Some want)
            (Bigint.to_int (Bigint.modpow ~base:(bi b) ~exponent:(bi e) ~modulus:(bi m))))
        [ (0, 0); (0, 1); (m, 0); (m, 1); (5, 0); (5, 1) ])
    [ 1; 2; 3 ];
  let p = Crypto.Dh.sim_768.p in
  let pow b e = Bigint.modpow ~base:b ~exponent:e ~modulus:p in
  check_hex "0^1" "0" (pow Bigint.zero Bigint.one);
  check_hex "p^1" "0" (pow p Bigint.one);
  check_hex "p^0" "1" (pow p Bigint.zero);
  check_hex "(p+5)^1" "5" (pow (Bigint.add p (bi 5)) Bigint.one);
  check_hex "(p-1)^2" "1" (pow (Bigint.sub p Bigint.one) Bigint.two);
  (* Odd composite moduli that divide the power: a result left at m
     instead of 0 would show here.  88f9...f5b1 is 3^60. *)
  List.iter
    (fun (name, b, e, m) -> check_hex name "0" (Bigint.modpow ~base:(bi b) ~exponent:(bi e) ~modulus:m))
    [
      ("3^2 mod 9", 3, 2, bi 9);
      ("21^3 mod 441", 21, 3, bi 441);
      ("3^61 mod 3^60", 3, 61, Bigint.of_hex "88f924eeceeda7fe92e1f5b1");
    ]

(* Known answers computed by square-and-multiply with a full division
   per step: the default simulated vendor's 512-bit key
   ({!Snic.Identity.make_vendor} draws it from seed 0xC0FFEE) and one
   signature with it.  A key generation or a private-key power that moved
   would change either. *)
let test_rsa_known_answers () =
  let vendor = Snic.Identity.make_vendor ~name:"kat" () in
  let pub =
    "rsa:21dd63add7b4d7c6b37df721058e4847615c86cb9708a266082960e343852df5d8fad58f1e0d75744a2b239a0665f9d36b6e99a60fbd0da11774cc49b3d558b2d:10001"
  in
  Alcotest.(check string) "vendor key" pub (Crypto.Rsa.public_to_string (Snic.Identity.vendor_public vendor));
  let key = Crypto.Rsa.generate (Random.State.make [| 0xC0FFEE |]) ~bits:512 in
  Alcotest.(check string) "the same key from its seed" pub (Crypto.Rsa.public_to_string key.Crypto.Rsa.pub);
  Alcotest.(check string) "signature"
    "01626ed4bbe5b1fb232d3147b343a2de52bbf129e9ff1703c539d21ac5621ec6d078bc8bd0cb11cc6a6ef52cf9de7722bb712558072bab4565f5ed5bf25d1f2f64"
    (Crypto.Sha256.to_hex (Crypto.Rsa.sign key "s-nic known answer"))

let test_gcd_modinv () =
  Alcotest.(check (option int)) "gcd" (Some 6) (Bigint.to_int (Bigint.gcd (bi 54) (bi 24)));
  (match Bigint.modinv (bi 3) (bi 7) with
  | Some v -> Alcotest.(check (option int)) "3^-1 mod 7" (Some 5) (Bigint.to_int v)
  | None -> Alcotest.fail "expected inverse");
  (match Bigint.modinv (bi 4) (bi 8) with
  | None -> ()
  | Some _ -> Alcotest.fail "no inverse expected");
  match Bigint.modinv (bi 65537) (bi 999999999989) with
  | Some v ->
    let p = Bigint.rem (Bigint.mul v (bi 65537)) (bi 999999999989) in
    Alcotest.(check (option int)) "inverse checks" (Some 1) (Bigint.to_int p)
  | None -> Alcotest.fail "expected inverse"

let test_primality () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect (Bigint.is_probable_prime st (bi n)))
    [ (2, true); (3, true); (4, false); (97, true); (561, false); (7919, true); (7917, false); (1, false); (0, false) ];
  (* The Oakley 768-bit prime must pass. *)
  Alcotest.(check bool) "oakley-768" true (Bigint.is_probable_prime st Crypto.Dh.sim_768.p);
  let p = Bigint.random_prime st ~bits:64 in
  Alcotest.(check int) "64-bit" 64 (Bigint.bit_length p);
  Alcotest.(check bool) "prime" true (Bigint.is_probable_prime st p)

let test_bytes_roundtrip () =
  let s = "\x01\x02\xfe\xff\x00\x42" in
  let v = Bigint.of_bytes_be s in
  Alcotest.(check string) "pad" ("\x00\x00" ^ s) (Bigint.to_bytes_be ~len:8 v);
  Alcotest.check_raises "too short" (Invalid_argument "Bigint.to_bytes_be: too short") (fun () ->
      ignore (Bigint.to_bytes_be ~len:1 v))

(* Property tests: check ring laws against OCaml ints on 31-bit values,
   where both arithmetics are exact. *)
let small = QCheck.int_bound ((1 lsl 30) - 1)

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      Bigint.to_int (Bigint.add (bi a) (bi b)) = Some (a + b))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      Bigint.to_int (Bigint.mul (bi a) (bi b)) = Some (a * b))

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint divmod matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      if b = 0 then QCheck.assume_fail ()
      else begin
        let q, r = Bigint.divmod (bi a) (bi b) in
        Bigint.to_int q = Some (a / b) && Bigint.to_int r = Some (a mod b)
      end)

let prop_divmod_reconstruct =
  (* On large random numbers: a = q*b + r and r < b. *)
  QCheck.Test.make ~name:"divmod reconstructs" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 1 40)) (QCheck.string_of_size (QCheck.Gen.int_range 1 20)))
    (fun (sa, sb) ->
      let a = Bigint.of_bytes_be sa and b = Bigint.of_bytes_be sb in
      if Bigint.is_zero b then QCheck.assume_fail ()
      else begin
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r) && Bigint.compare r b < 0
      end)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 (QCheck.string_of_size (QCheck.Gen.int_range 1 64)) (fun s ->
      let v = Bigint.of_bytes_be s in
      Bigint.equal v (Bigint.of_hex (Bigint.to_hex v)))

(* [modpow] against square-and-multiply by [mul] and [rem], on odd
   moduli (the Montgomery path) and even ones, 1 to 1,600 bits wide with
   RFC 3526's 1,536-bit prime one time in eight, bases up to twice the
   modulus width, and exponents of 0 to 600 bits. *)
let prop_modpow_reference =
  let reference b e m =
    let b = ref (Bigint.rem b m) and r = ref (Bigint.rem Bigint.one m) in
    for i = 0 to Bigint.bit_length e - 1 do
      if Bigint.testbit e i then r := Bigint.rem (Bigint.mul !r !b) m;
      b := Bigint.rem (Bigint.mul !b !b) m
    done;
    !r
  in
  let gen =
    QCheck.Gen.(
      let* bits = int_range 1 1600 in
      let* odd = bool in
      let* dh = int_range 0 7 in
      let* base_bits = int_range 0 (2 * bits) in
      let* exp_bits = int_range 0 600 in
      let* seed = int in
      let st = Random.State.make [| seed |] in
      let m =
        if dh = 0 then Crypto.Dh.modp_1536.p
        else begin
          let m = Bigint.add (Bigint.random st ~bits:(bits - 1)) (Bigint.shift_left Bigint.one (bits - 1)) in
          if Bigint.testbit m 0 = odd || Bigint.equal m Bigint.one then m
          else if odd then Bigint.add m Bigint.one
          else Bigint.sub m Bigint.one
        end
      in
      return (m, Bigint.random st ~bits:base_bits, Bigint.random st ~bits:exp_bits))
  in
  let print (m, b, e) = Printf.sprintf "modulus=%s base=%s exponent=%s" (Bigint.to_hex m) (Bigint.to_hex b) (Bigint.to_hex e) in
  QCheck.Test.make ~name:"modpow matches mul/rem square-and-multiply" ~count:120 (QCheck.make ~print gen)
    (fun (m, b, e) -> Bigint.equal (Bigint.modpow ~base:b ~exponent:e ~modulus:m) (reference b e m))

let suite =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "mul/divmod" `Quick test_mul_div;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "shifts" `Quick test_shift;
    Alcotest.test_case "modpow" `Quick test_modpow;
    Alcotest.test_case "gcd/modinv" `Quick test_gcd_modinv;
    Alcotest.test_case "primality" `Slow test_primality;
    Alcotest.test_case "byte conversion" `Quick test_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_reconstruct;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    Alcotest.test_case "rsa known answers" `Quick test_rsa_known_answers;
    QCheck_alcotest.to_alcotest prop_modpow_reference;
  ]
