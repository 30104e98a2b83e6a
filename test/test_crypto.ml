let test_sha256_vectors () =
  let check msg input expected = Alcotest.(check string) msg expected (Crypto.Sha256.to_hex (Crypto.Sha256.digest input)) in
  check "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "two blocks" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  (* 56..64-byte inputs straddle the padding boundary. *)
  check "55 a's" (String.make 55 'a') "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318";
  check "64 a's" (String.make 64 'a') "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb";
  check "896-bit message"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";
  check "one million a's" (String.make 1_000_000 'a') "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* Every length 0..300 of one byte pattern, pinned as the SHA-256 of the
   301 digests concatenated.  The constant is Python's
   hashlib.sha256(b"".join(hashlib.sha256(bytes((7 * i + 3) & 255 for i
   in range(n))).digest() for n in range(301))).hexdigest(). *)
let test_sha256_all_lengths () =
  let pattern n = String.init n (fun i -> Char.chr (((7 * i) + 3) land 0xff)) in
  let digests = String.concat "" (List.init 301 (fun n -> Crypto.Sha256.digest (pattern n))) in
  Alcotest.(check string) "lengths 0..300" "7d917fbd2cf49ddff9ad0a8706bba32d204e92e71d2e369c5a03d6af29278c9f"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest digests))

let test_sha256_incremental () =
  let whole = Crypto.Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx "the quick brown fox";
  Crypto.Sha256.feed ctx " jumps over";
  Crypto.Sha256.feed ctx " the lazy dog";
  Alcotest.(check string) "chunked = one-shot" (Crypto.Sha256.to_hex whole) (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx));
  (* A chunk of two and more blocks while 5 bytes are pending, through
     each entry point. *)
  let s = String.init 158 (fun i -> Char.chr i) in
  let want = Crypto.Sha256.to_hex (Crypto.Sha256.digest s) in
  List.iter
    (fun (name, feed) ->
      let ctx = Crypto.Sha256.init () in
      feed ctx (String.sub s 0 5);
      feed ctx (String.sub s 5 150);
      feed ctx (String.sub s 155 3);
      Alcotest.(check string) name want (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
    [
      ("feed", Crypto.Sha256.feed);
      ("feed_bytes", fun ctx c -> Crypto.Sha256.feed_bytes ctx (Bytes.of_string c));
      ("feed_sub", fun ctx c -> Crypto.Sha256.feed_sub ctx ("<" ^ c ^ ">") ~pos:1 ~len:(String.length c));
    ]

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 2. *)
  let tag = Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "rfc4231 tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Sha256.to_hex tag);
  (* test case 1: 20 bytes of 0x0b, "Hi There" *)
  let tag1 = Crypto.Hmac.mac ~key:(String.make 20 '\x0b') "Hi There" in
  Alcotest.(check string) "rfc4231 tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Sha256.to_hex tag1);
  (* Test cases 6 and 7: a 131-byte key, longer than the block, is
     hashed before padding. *)
  let long_key = String.make 131 '\xaa' in
  Alcotest.(check string) "rfc4231 tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Crypto.Sha256.to_hex (Crypto.Hmac.mac ~key:long_key "Test Using Larger Than Block-Size Key - Hash Key First"));
  Alcotest.(check string) "rfc4231 tc7" "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Crypto.Sha256.to_hex
       (Crypto.Hmac.mac ~key:long_key
          "This is a test using a larger than block-size key and a larger than block-size data. The key needs to \
           be hashed before being used by the HMAC algorithm."))

let test_hmac_mac_sub_range () =
  let k = Crypto.Hmac.keyed "k" in
  let raises pos len =
    match Crypto.Hmac.mac_sub k "0123456789" ~pos ~len with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "pos < 0" true (raises (-1) 2);
  Alcotest.(check bool) "len < 0" true (raises 0 (-1));
  Alcotest.(check bool) "pos + len > length" true (raises 4 7);
  Alcotest.(check bool) "whole string" false (raises 0 10);
  Alcotest.(check bool) "empty range at the end" false (raises 10 0)

let test_hmac_verify_at () =
  let tag = Crypto.Hmac.mac ~key:"k" "m" in
  let framed = "hdr" ^ tag ^ "tail" in
  Alcotest.(check bool) "equal tags" true (Crypto.Hmac.verify_at ~tag tag ~pos:0);
  Alcotest.(check bool) "equal tag at an offset" true (Crypto.Hmac.verify_at ~tag framed ~pos:3);
  for i = 0 to 31 do
    let flipped = Bytes.of_string tag in
    Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x10));
    if Crypto.Hmac.verify_at ~tag (Bytes.to_string flipped) ~pos:0 then
      Alcotest.failf "a flipped bit at byte %d still verified" i
  done;
  Alcotest.(check bool) "short buffer" false (Crypto.Hmac.verify_at ~tag (String.sub tag 0 31) ~pos:0);
  Alcotest.(check bool) "too few bytes after pos" false (Crypto.Hmac.verify_at ~tag framed ~pos:8);
  Alcotest.(check bool) "pos past the end" false (Crypto.Hmac.verify_at ~tag framed ~pos:100);
  Alcotest.(check bool) "negative pos" false (Crypto.Hmac.verify_at ~tag framed ~pos:(-1));
  Alcotest.(check bool) "short tag" false (Crypto.Hmac.verify_at ~tag:(String.sub tag 0 31) tag ~pos:0)

let test_dh_agreement () =
  let st = Random.State.make [| 7 |] in
  let group = Crypto.Dh.sim_768 in
  let sa, pa = Crypto.Dh.keypair st group in
  let sb, pb = Crypto.Dh.keypair st group in
  let ka = Crypto.Dh.shared_key ~secret:sa ~peer:pb in
  let kb = Crypto.Dh.shared_key ~secret:sb ~peer:pa in
  Alcotest.(check string) "shared keys agree" (Crypto.Sha256.to_hex ka) (Crypto.Sha256.to_hex kb);
  Alcotest.(check int) "key is 32 bytes" 32 (String.length ka);
  let sc, _ = Crypto.Dh.keypair st group in
  let kc = Crypto.Dh.shared_key ~secret:sc ~peer:pa in
  Alcotest.(check bool) "third party differs" false (String.equal ka kc)

let test_rsa_sign_verify () =
  let st = Random.State.make [| 11 |] in
  let key = Crypto.Rsa.generate st ~bits:512 in
  let msg = "attest: hash-of-initial-state" in
  let signature = Crypto.Rsa.sign key msg in
  Alcotest.(check int) "sig length" (Crypto.Rsa.modulus_bytes key.pub) (String.length signature);
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify key.pub ~msg ~signature);
  Alcotest.(check bool) "wrong msg" false (Crypto.Rsa.verify key.pub ~msg:"other" ~signature);
  let tampered = Bytes.of_string signature in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
  Alcotest.(check bool) "tampered sig" false (Crypto.Rsa.verify key.pub ~msg ~signature:(Bytes.to_string tampered))

let test_certificate_chain () =
  let st = Random.State.make [| 13 |] in
  let vendor = Crypto.Rsa.generate st ~bits:512 in
  let ek = Crypto.Rsa.generate st ~bits:512 in
  let cert = Crypto.Rsa.issue ~issuer_name:"NIC Vendor Inc" ~issuer_key:vendor ~subject:"S-NIC EK 0042" ek.pub in
  Alcotest.(check bool) "cert verifies" true (Crypto.Rsa.check_certificate ~issuer_key:vendor.pub cert);
  let mallory = Crypto.Rsa.generate st ~bits:512 in
  Alcotest.(check bool) "wrong issuer" false (Crypto.Rsa.check_certificate ~issuer_key:mallory.pub cert)

let test_cipher_roundtrip () =
  let key = Crypto.Sha256.digest "shared" in
  let pt = "payload bytes \x00\x01\x02 with zeros" in
  let ct = Crypto.Cipher.seal ~key ~nonce:42L pt in
  Alcotest.(check int) "tag adds 16" (String.length pt + 16) (String.length ct);
  (match Crypto.Cipher.open_ ~key ~nonce:42L ct with
  | Some got -> Alcotest.(check string) "roundtrip" pt got
  | None -> Alcotest.fail "decrypt failed");
  Alcotest.(check bool) "wrong nonce" true (Crypto.Cipher.open_ ~key ~nonce:43L ct = None);
  Alcotest.(check bool) "wrong key" true (Crypto.Cipher.open_ ~key:(Crypto.Sha256.digest "x") ~nonce:42L ct = None);
  let bad = Bytes.of_string ct in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0x80));
  Alcotest.(check bool) "tampered" true (Crypto.Cipher.open_ ~key ~nonce:42L (Bytes.to_string bad) = None)

let prop_cipher_roundtrip =
  QCheck.Test.make ~name:"cipher roundtrips arbitrary payloads" ~count:100
    (QCheck.string_of_size (QCheck.Gen.int_range 0 500))
    (fun pt ->
      let key = Crypto.Sha256.digest "k" in
      Crypto.Cipher.open_ ~key ~nonce:7L (Crypto.Cipher.seal ~key ~nonce:7L pt) = Some pt)

let prop_hmac_keyed =
  QCheck.Test.make ~name:"hmac distinguishes keys" ~count:100
    (QCheck.pair QCheck.small_string QCheck.small_string)
    (fun (k, m) -> String.equal (Crypto.Hmac.mac ~key:k m) (Crypto.Hmac.mac ~key:(k ^ "x") m) = false)

(* The keyed path over a byte range equals the one-shot MAC of the
   copied-out range, for keys on both sides of the 64-byte block; the
   second MAC under the same keyed state checks that the first left it
   unchanged. *)
let prop_hmac_mac_sub =
  let gen =
    QCheck.Gen.(
      let* key = string_size (int_range 0 200) in
      let* s = string_size (int_range 0 300) in
      let* pos = int_range 0 (String.length s) in
      let* len = int_range 0 (String.length s - pos) in
      return (key, s, pos, len))
  in
  QCheck.Test.make ~name:"hmac mac_sub = mac over the copied range" ~count:300
    (QCheck.make ~print:(fun (k, s, pos, len) -> Printf.sprintf "key=%S s=%S pos=%d len=%d" k s pos len) gen)
    (fun (key, s, pos, len) ->
      let k = Crypto.Hmac.keyed key in
      let want = Crypto.Hmac.mac ~key (String.sub s pos len) in
      String.equal (Crypto.Hmac.mac_sub k s ~pos ~len) want && String.equal (Crypto.Hmac.mac_sub k s ~pos ~len) want)

let suite =
  [
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
    Alcotest.test_case "hmac mac_sub range" `Quick test_hmac_mac_sub_range;
    Alcotest.test_case "hmac verify_at" `Quick test_hmac_verify_at;
    QCheck_alcotest.to_alcotest prop_hmac_mac_sub;
    Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
    Alcotest.test_case "rsa sign/verify" `Slow test_rsa_sign_verify;
    Alcotest.test_case "certificate chain" `Slow test_certificate_chain;
    Alcotest.test_case "cipher roundtrip" `Quick test_cipher_roundtrip;
    QCheck_alcotest.to_alcotest prop_cipher_roundtrip;
    QCheck_alcotest.to_alcotest prop_hmac_keyed;
  ]

let test_dh_full_strength () =
  (* The RFC 3526 1536-bit group the production protocol would use. *)
  let st = Random.State.make [| 99 |] in
  let group = Crypto.Dh.modp_1536 in
  Alcotest.(check int) "modulus width" 1536 (Bigint.bit_length group.Crypto.Dh.p);
  let sa, pa = Crypto.Dh.keypair st group in
  let sb, pb = Crypto.Dh.keypair st group in
  Alcotest.(check string) "full-strength agreement"
    (Crypto.Sha256.to_hex (Crypto.Dh.shared_key ~secret:sa ~peer:pb))
    (Crypto.Sha256.to_hex (Crypto.Dh.shared_key ~secret:sb ~peer:pa))

let test_rsa_1024 () =
  let st = Random.State.make [| 101 |] in
  let key = Crypto.Rsa.generate st ~bits:1024 in
  let signature = Crypto.Rsa.sign key "production-size key" in
  Alcotest.(check int) "128-byte signature" 128 (String.length signature);
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify key.pub ~msg:"production-size key" ~signature)

let test_rsa_cross_key_rejection () =
  let st = Random.State.make [| 103 |] in
  let k1 = Crypto.Rsa.generate st ~bits:512 in
  let k2 = Crypto.Rsa.generate st ~bits:512 in
  let signature = Crypto.Rsa.sign k1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Crypto.Rsa.verify k2.pub ~msg:"msg" ~signature)

let prop_sha256_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes nearby inputs" ~count:300 QCheck.small_string (fun s ->
      not (String.equal (Crypto.Sha256.digest s) (Crypto.Sha256.digest (s ^ "\x00"))))

let prop_sha256_incremental_eq =
  QCheck.Test.make ~name:"sha256 incremental = one-shot at any split" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 0 300)) QCheck.small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.feed ctx (String.sub s 0 k);
      Crypto.Sha256.feed ctx (String.sub s k (String.length s - k));
      String.equal (Crypto.Sha256.finalize ctx) (Crypto.Sha256.digest s))

(* A message fed in random chunks, each through [feed], [feed_bytes] or
   [feed_sub] at a nonzero offset of a larger string, hashes as it does
   in one piece.  Chunks of up to 200 bytes often cover whole blocks
   while a partial block is pending.  Whatever the chunk list leaves
   over goes in as one last chunk. *)
let prop_sha256_chunked =
  let gen =
    QCheck.Gen.(
      let* msg = string_size (int_range 0 600) in
      let* chunks = list_size (int_range 0 12) (triple (int_range 0 200) (int_range 0 2) (int_range 1 9)) in
      return (msg, chunks))
  in
  let print (msg, chunks) =
    Printf.sprintf "msg=%S chunks=[%s]" msg
      (String.concat "; " (List.map (fun (n, how, pad) -> Printf.sprintf "(%d,%d,%d)" n how pad) chunks))
  in
  QCheck.Test.make ~name:"sha256 chunked feeds = digest" ~count:300 (QCheck.make ~print gen) (fun (msg, chunks) ->
      let ctx = Crypto.Sha256.init () in
      let feed pos (n, how, pad) =
        let chunk = String.sub msg pos n in
        (match how with
        | 0 -> Crypto.Sha256.feed ctx chunk
        | 1 -> Crypto.Sha256.feed_bytes ctx (Bytes.of_string chunk)
        | _ -> Crypto.Sha256.feed_sub ctx (String.make pad '<' ^ chunk ^ String.make pad '>') ~pos:pad ~len:n);
        pos + n
      in
      let len = String.length msg in
      let pos = List.fold_left (fun pos (n, how, pad) -> feed pos (min n (len - pos), how, pad)) 0 chunks in
      ignore (feed pos (len - pos, 2, 3));
      String.equal (Crypto.Sha256.finalize ctx) (Crypto.Sha256.digest msg))

let suite =
  suite
  @ [
      Alcotest.test_case "dh full strength (1536)" `Slow test_dh_full_strength;
      Alcotest.test_case "rsa 1024" `Slow test_rsa_1024;
      Alcotest.test_case "rsa cross-key rejection" `Slow test_rsa_cross_key_rejection;
      QCheck_alcotest.to_alcotest prop_sha256_distinct;
      QCheck_alcotest.to_alcotest prop_sha256_incremental_eq;
      Alcotest.test_case "sha256 every length to 300" `Quick test_sha256_all_lengths;
      QCheck_alcotest.to_alcotest prop_sha256_chunked;
    ]
