(* The leaf kernel registry: native-speed implementations of the
   substitutable leaf kernels, dispatched by (kernel name, dtype, shape
   class). This plays the CuBLAS role of the paper's Fig. 2 one level
   deeper than [Kernels]: the same contraction, but cache-blocked and
   register-tiled over the contiguous float64 bigarrays behind [Dense].

   The kernels are cache-blocked and their per-output-element float
   operations replay the *evaluator's* accumulation order exactly — the
   accumulator is initialized from the current output element, one
   multiply-add is applied per reduction point in ascending canonical
   order, and the value is stored back. Register tiles and KC blocking
   only interleave *different* output elements' chains (and spill a
   correctly-rounded double between K blocks), so a tiled run is
   bit-identical to the staged/generic evaluator on the same leaf. See
   DESIGN.md "Leaf kernel registry" for the full accumulation-order
   policy.

   Every kernel works on [view]s — a base offset plus one linear stride
   per index of that operand's access pattern — so sliced instances and
   transposed layouts dispatch without a copy; the packing routines
   below gather strided panels into contiguous microkernel operands
   (the strided-copy pack discipline). dtype is float64 only, the
   substrate of [Dense]. *)

module A1 = Bigarray.Array1

type mode = Off | Tiled

(* {2 The kernel table}

   One entry per substitutable kernel: the access letters of the output
   and each factor (the single source of truth [Kernel_match] unifies
   statements against), and the flop count per point of the canonical
   iteration space. Canonical letter order — the order of [dims] arrays
   throughout this module — is first appearance scanning lhs then
   factors. *)

type entry = { name : string; lhs : string; factors : string list; flops_per_point : float }

let entries =
  [
    { name = "gemm"; lhs = "ij"; factors = [ "ik"; "kj" ]; flops_per_point = 2.0 };
    { name = "gemv"; lhs = "i"; factors = [ "ik"; "k" ]; flops_per_point = 2.0 };
    { name = "ttv"; lhs = "ij"; factors = [ "ijk"; "k" ]; flops_per_point = 2.0 };
    { name = "ttm"; lhs = "ijl"; factors = [ "ijk"; "kl" ]; flops_per_point = 2.0 };
    {
      name = "mttkrp";
      lhs = "il";
      factors = [ "ijk"; "jl"; "kl" ];
      flops_per_point = 3.0;
    };
    { name = "innerprod"; lhs = ""; factors = [ "ijk"; "ijk" ]; flops_per_point = 2.0 };
  ]

let entry name =
  match List.find_opt (fun e -> String.equal e.name name) entries with
  | Some e -> e
  | None -> invalid_arg ("Kernel_registry: unknown kernel " ^ name)

let kernel_names = List.map (fun e -> e.name) entries

let letters e =
  let seen = Buffer.create 8 in
  List.iter
    (String.iter (fun ch ->
         if not (String.contains (Buffer.contents seen) ch) then Buffer.add_char seen ch))
    (e.lhs :: e.factors);
  Buffer.contents seen

let canonical_letters = letters

let flops ~kernel ~dims =
  let e = entry kernel in
  if Array.length dims <> String.length (letters e) then
    invalid_arg
      (Printf.sprintf "Kernel_registry.flops: %s wants %d extents, got %d" kernel
         (String.length (letters e))
         (Array.length dims));
  e.flops_per_point *. float_of_int (Distal_support.Ints.prod dims)

(* {2 Views} *)

type view = { buf : Dense.buf; off : int; st : int array }

(* Typed accessors: bound at [Dense.buf], each access compiles to an
   inline unboxed load or store. A let-bound alias of the polymorphic
   [A1.unsafe_get] would instead go through a C call that boxes every
   float it returns. *)
let[@inline] bget (b : Dense.buf) i = A1.unsafe_get b i
let[@inline] bset (b : Dense.buf) i (v : float) = A1.unsafe_set b i v

(* The kernels below take each operand as (buffer, base offset, one
   stride per access letter) rather than a [view], so edge strips and
   ttm's per-slice calls shift offsets without allocating a record. *)

(* {2 Simple tier: evaluator-order flat loops}

   Per output element: load, one multiply-add per reduction point in
   canonical ascending order, store. Used directly for small shapes and
   as the edge path of the micro tier (full-K chains and K-blocked
   chains round identically, see the header note). *)

let gemm_s ~m ~n ~k ab ao sai saj bb bo sbi sbk cb co sck scj =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let ao = ao + (i * sai) + (j * saj) in
      let acc = ref (bget ab ao) in
      let bo = ref (bo + (i * sbi)) and co = ref (co + (j * scj)) in
      for _p = 0 to k - 1 do
        acc := !acc +. (bget bb !bo *. bget cb !co);
        bo := !bo + sbk;
        co := !co + sck
      done;
      bset ab ao !acc
    done
  done

let gemv_s ~m ~k ab ao sai bb bo sbi sbk cb co sck =
  for i = 0 to m - 1 do
    let ao = ao + (i * sai) in
    let acc = ref (bget ab ao) in
    let bo = ref (bo + (i * sbi)) and co = ref co in
    for _p = 0 to k - 1 do
      acc := !acc +. (bget bb !bo *. bget cb !co);
      bo := !bo + sbk;
      co := !co + sck
    done;
    bset ab ao !acc
  done

let ttv_s ~ni ~nj ~nk ab ao sai saj bb bo sbi sbj sbk cb co sck =
  for i = 0 to ni - 1 do
    for j = 0 to nj - 1 do
      let ao = ao + (i * sai) + (j * saj) in
      let acc = ref (bget ab ao) in
      let bo = ref (bo + (i * sbi) + (j * sbj)) and co = ref co in
      for _p = 0 to nk - 1 do
        acc := !acc +. (bget bb !bo *. bget cb !co);
        bo := !bo + sbk;
        co := !co + sck
      done;
      bset ab ao !acc
    done
  done

let mttkrp_s ~ni ~nl ~nj ~nk ab ao sai sal bb bo sbi sbj sbk cb co scj scl db dof sdk sdl =
  for i = 0 to ni - 1 do
    for l = 0 to nl - 1 do
      let ao = ao + (i * sai) + (l * sal) in
      let acc = ref (bget ab ao) in
      for j = 0 to nj - 1 do
        let cv = bget cb (co + (j * scj) + (l * scl)) in
        let bo = ref (bo + (i * sbi) + (j * sbj)) in
        let dof = ref (dof + (l * sdl)) in
        for _p = 0 to nk - 1 do
          acc := !acc +. (bget bb !bo *. cv *. bget db !dof);
          bo := !bo + sbk;
          dof := !dof + sdk
        done
      done;
      bset ab ao !acc
    done
  done

let innerprod_s ~ni ~nj ~nk a x y =
  let ab = a.buf and xb = x.buf and yb = y.buf in
  let sxi = x.st.(0) and sxj = x.st.(1) and sxk = x.st.(2) in
  let syi = y.st.(0) and syj = y.st.(1) and syk = y.st.(2) in
  let acc = ref (bget ab a.off) in
  for i = 0 to ni - 1 do
    for j = 0 to nj - 1 do
      let xo = ref (x.off + (i * sxi) + (j * sxj)) in
      let yo = ref (y.off + (i * syi) + (j * syj)) in
      for _p = 0 to nk - 1 do
        acc := !acc +. (bget xb !xo *. bget yb !yo);
        xo := !xo + sxk;
        yo := !yo + syk
      done
    done
  done;
  bset ab a.off !acc

(* {2 Micro tier: packed panels and register tiles}

   GotoBLAS/BLIS-shaped GEMM: NC-column outer blocks, KC-deep reduction
   blocks, a packed B panel (4 rows, K-major) and packed C panels (4
   columns per tile, K-major), and a 4x4 register microkernel of explicit
   multiply-add chains. Edge rows/columns route to the simple tier on a
   shifted offset — same per-element operation chain, no packing. *)

let kc_block = 256
let nc_block = 128

(* Packing panels live in a per-domain scratch, grown on demand and never
   shrunk, so a warm call allocates nothing. Kernels never nest, so one
   set of panels per domain suffices. *)
type scratch = {
  mutable cp : float array;  (* C panels, K-major per 4-column tile *)
  mutable bp : float array;  (* 4 rows of B, K-major *)
  mutable vp : float array;  (* a packed vector (gemv, ttv) *)
}

let scratch = Domain.DLS.new_key (fun () -> { cp = [||]; bp = [||]; vp = [||] })
let grown (p : float array) n = if Array.length p >= n then p else Array.make n 0.0

let gemm_t ~m ~n ~k ab ao sai saj bb bo sbi sbk cb co sck scj =
  let m4 = m land lnot 3 and n4 = n land lnot 3 in
  if m4 = 0 || n4 = 0 then gemm_s ~m ~n ~k ab ao sai saj bb bo sbi sbk cb co sck scj
  else begin
    let s = Domain.DLS.get scratch in
    let kc_max = min kc_block k and nc_w = min n4 nc_block in
    s.cp <- grown s.cp (kc_max * nc_w);
    s.bp <- grown s.bp (kc_max * 4);
    let cp = s.cp and bp = s.bp in
    let jc = ref 0 in
    while !jc < n4 do
      let nc = min nc_block (n4 - !jc) in
      let k0 = ref 0 in
      while !k0 < k do
        let kc = min kc_block (k - !k0) in
        (* Pack the C block: one contiguous K-major panel per 4-column
           tile, gathered through the operand's strides. *)
        for t = 0 to (nc / 4) - 1 do
          let j0 = !jc + (t * 4) in
          let base = t * kc * 4 in
          for p = 0 to kc - 1 do
            let o = co + ((!k0 + p) * sck) + (j0 * scj) in
            let q = base + (p * 4) in
            Array.unsafe_set cp q (bget cb o);
            Array.unsafe_set cp (q + 1) (bget cb (o + scj));
            Array.unsafe_set cp (q + 2) (bget cb (o + (2 * scj)));
            Array.unsafe_set cp (q + 3) (bget cb (o + (3 * scj)))
          done
        done;
        let i0 = ref 0 in
        while !i0 < m4 do
          let ib = !i0 in
          (* Pack 4 rows of B, K-major. *)
          for p = 0 to kc - 1 do
            let o = bo + (ib * sbi) + ((!k0 + p) * sbk) in
            let q = p * 4 in
            Array.unsafe_set bp q (bget bb o);
            Array.unsafe_set bp (q + 1) (bget bb (o + sbi));
            Array.unsafe_set bp (q + 2) (bget bb (o + (2 * sbi)));
            Array.unsafe_set bp (q + 3) (bget bb (o + (3 * sbi)))
          done;
          for t = 0 to (nc / 4) - 1 do
            let j0 = !jc + (t * 4) in
            let a0 = ao + (ib * sai) + (j0 * saj) in
            let a1 = a0 + sai in
            let a2 = a1 + sai in
            let a3 = a2 + sai in
            let r00 = ref (bget ab a0) in
            let r01 = ref (bget ab (a0 + saj)) in
            let r02 = ref (bget ab (a0 + (2 * saj))) in
            let r03 = ref (bget ab (a0 + (3 * saj))) in
            let r10 = ref (bget ab a1) in
            let r11 = ref (bget ab (a1 + saj)) in
            let r12 = ref (bget ab (a1 + (2 * saj))) in
            let r13 = ref (bget ab (a1 + (3 * saj))) in
            let r20 = ref (bget ab a2) in
            let r21 = ref (bget ab (a2 + saj)) in
            let r22 = ref (bget ab (a2 + (2 * saj))) in
            let r23 = ref (bget ab (a2 + (3 * saj))) in
            let r30 = ref (bget ab a3) in
            let r31 = ref (bget ab (a3 + saj)) in
            let r32 = ref (bget ab (a3 + (2 * saj))) in
            let r33 = ref (bget ab (a3 + (3 * saj))) in
            let cbase = t * kc * 4 in
            for p = 0 to kc - 1 do
              let q = p * 4 in
              let b0 = Array.unsafe_get bp q in
              let b1 = Array.unsafe_get bp (q + 1) in
              let b2 = Array.unsafe_get bp (q + 2) in
              let b3 = Array.unsafe_get bp (q + 3) in
              let qc = cbase + q in
              let c0 = Array.unsafe_get cp qc in
              let c1 = Array.unsafe_get cp (qc + 1) in
              let c2 = Array.unsafe_get cp (qc + 2) in
              let c3 = Array.unsafe_get cp (qc + 3) in
              r00 := !r00 +. (b0 *. c0);
              r01 := !r01 +. (b0 *. c1);
              r02 := !r02 +. (b0 *. c2);
              r03 := !r03 +. (b0 *. c3);
              r10 := !r10 +. (b1 *. c0);
              r11 := !r11 +. (b1 *. c1);
              r12 := !r12 +. (b1 *. c2);
              r13 := !r13 +. (b1 *. c3);
              r20 := !r20 +. (b2 *. c0);
              r21 := !r21 +. (b2 *. c1);
              r22 := !r22 +. (b2 *. c2);
              r23 := !r23 +. (b2 *. c3);
              r30 := !r30 +. (b3 *. c0);
              r31 := !r31 +. (b3 *. c1);
              r32 := !r32 +. (b3 *. c2);
              r33 := !r33 +. (b3 *. c3)
            done;
            bset ab a0 !r00;
            bset ab (a0 + saj) !r01;
            bset ab (a0 + (2 * saj)) !r02;
            bset ab (a0 + (3 * saj)) !r03;
            bset ab a1 !r10;
            bset ab (a1 + saj) !r11;
            bset ab (a1 + (2 * saj)) !r12;
            bset ab (a1 + (3 * saj)) !r13;
            bset ab a2 !r20;
            bset ab (a2 + saj) !r21;
            bset ab (a2 + (2 * saj)) !r22;
            bset ab (a2 + (3 * saj)) !r23;
            bset ab a3 !r30;
            bset ab (a3 + saj) !r31;
            bset ab (a3 + (2 * saj)) !r32;
            bset ab (a3 + (3 * saj)) !r33
          done;
          i0 := !i0 + 4
        done;
        k0 := !k0 + kc
      done;
      jc := !jc + nc
    done;
    if m4 < m then
      gemm_s ~m:(m - m4) ~n ~k ab (ao + (m4 * sai)) sai saj bb (bo + (m4 * sbi)) sbi sbk cb
        co sck scj;
    if n4 < n then
      gemm_s ~m:m4 ~n:(n - n4) ~k ab (ao + (n4 * saj)) sai saj bb bo sbi sbk cb
        (co + (n4 * scj)) sck scj
  end

(* Pack a strided vector into the domain's contiguous scratch (reused
   across every row of the output). *)
let pack_vec cb co sck ~len =
  let s = Domain.DLS.get scratch in
  s.vp <- grown s.vp len;
  let p = s.vp in
  for i = 0 to len - 1 do
    Array.unsafe_set p i (bget cb (co + (i * sck)))
  done;
  p

let gemv_t ~m ~k ab ao sai bb bo sbi sbk cb co sck =
  let m4 = m land lnot 3 in
  if m4 = 0 then gemv_s ~m ~k ab ao sai bb bo sbi sbk cb co sck
  else begin
    let cp = pack_vec cb co sck ~len:k in
    let i0 = ref 0 in
    while !i0 < m4 do
      let ib = !i0 in
      let a0 = ao + (ib * sai) in
      let r0 = ref (bget ab a0) in
      let r1 = ref (bget ab (a0 + sai)) in
      let r2 = ref (bget ab (a0 + (2 * sai))) in
      let r3 = ref (bget ab (a0 + (3 * sai))) in
      let bo = ref (bo + (ib * sbi)) in
      for p = 0 to k - 1 do
        let cv = Array.unsafe_get cp p in
        let o = !bo in
        r0 := !r0 +. (bget bb o *. cv);
        r1 := !r1 +. (bget bb (o + sbi) *. cv);
        r2 := !r2 +. (bget bb (o + (2 * sbi)) *. cv);
        r3 := !r3 +. (bget bb (o + (3 * sbi)) *. cv);
        bo := !bo + sbk
      done;
      bset ab a0 !r0;
      bset ab (a0 + sai) !r1;
      bset ab (a0 + (2 * sai)) !r2;
      bset ab (a0 + (3 * sai)) !r3;
      i0 := !i0 + 4
    done;
    if m4 < m then
      gemv_s ~m:(m - m4) ~k ab (ao + (m4 * sai)) sai bb (bo + (m4 * sbi)) sbi sbk cb co sck
  end

let ttv_t ~ni ~nj ~nk ab ao sai saj bb bo sbi sbj sbk cb co sck =
  let j4 = nj land lnot 3 in
  if j4 = 0 then ttv_s ~ni ~nj ~nk ab ao sai saj bb bo sbi sbj sbk cb co sck
  else begin
    let cp = pack_vec cb co sck ~len:nk in
    for i = 0 to ni - 1 do
      let jt = ref 0 in
      while !jt < j4 do
        let j0 = !jt in
        let a0 = ao + (i * sai) + (j0 * saj) in
        let r0 = ref (bget ab a0) in
        let r1 = ref (bget ab (a0 + saj)) in
        let r2 = ref (bget ab (a0 + (2 * saj))) in
        let r3 = ref (bget ab (a0 + (3 * saj))) in
        let bo = ref (bo + (i * sbi) + (j0 * sbj)) in
        for p = 0 to nk - 1 do
          let cv = Array.unsafe_get cp p in
          let o = !bo in
          r0 := !r0 +. (bget bb o *. cv);
          r1 := !r1 +. (bget bb (o + sbj) *. cv);
          r2 := !r2 +. (bget bb (o + (2 * sbj)) *. cv);
          r3 := !r3 +. (bget bb (o + (3 * sbj)) *. cv);
          bo := !bo + sbk
        done;
        bset ab a0 !r0;
        bset ab (a0 + saj) !r1;
        bset ab (a0 + (2 * saj)) !r2;
        bset ab (a0 + (3 * saj)) !r3;
        jt := !jt + 4
      done
    done;
    if j4 < nj then
      ttv_s ~ni ~nj:(nj - j4) ~nk ab (ao + (j4 * saj)) sai saj bb (bo + (j4 * sbj)) sbi sbj
        sbk cb co sck
  end

(* ttm is one gemm per i slice: A(i,:,:) += B(i,:,:) * C. *)
let ttm ~micro ~ni ~nj ~nl ~nk a b c =
  let gemm = if micro then gemm_t else gemm_s in
  let sai = a.st.(0) and saj = a.st.(1) and sal = a.st.(2) in
  let sbi = b.st.(0) and sbj = b.st.(1) and sbk = b.st.(2) in
  let sck = c.st.(0) and scl = c.st.(1) in
  for i = 0 to ni - 1 do
    gemm ~m:nj ~n:nl ~k:nk a.buf (a.off + (i * sai)) saj sal b.buf (b.off + (i * sbi)) sbj
      sbk c.buf c.off sck scl
  done

let mttkrp_t ~ni ~nl ~nj ~nk ab ao sai sal bb bo sbi sbj sbk cb co scj scl db dof sdk sdl =
  let l4 = nl land lnot 3 in
  if l4 = 0 then
    mttkrp_s ~ni ~nl ~nj ~nk ab ao sai sal bb bo sbi sbj sbk cb co scj scl db dof sdk sdl
  else begin
    for i = 0 to ni - 1 do
      let lt = ref 0 in
      while !lt < l4 do
        let l0 = !lt in
        let a0 = ao + (i * sai) + (l0 * sal) in
        let r0 = ref (bget ab a0) in
        let r1 = ref (bget ab (a0 + sal)) in
        let r2 = ref (bget ab (a0 + (2 * sal))) in
        let r3 = ref (bget ab (a0 + (3 * sal))) in
        for j = 0 to nj - 1 do
          let co = co + (j * scj) + (l0 * scl) in
          let c0 = bget cb co in
          let c1 = bget cb (co + scl) in
          let c2 = bget cb (co + (2 * scl)) in
          let c3 = bget cb (co + (3 * scl)) in
          let bo = ref (bo + (i * sbi) + (j * sbj)) in
          let dof = ref (dof + (l0 * sdl)) in
          for _p = 0 to nk - 1 do
            let bv = bget bb !bo in
            let o = !dof in
            r0 := !r0 +. (bv *. c0 *. bget db o);
            r1 := !r1 +. (bv *. c1 *. bget db (o + sdl));
            r2 := !r2 +. (bv *. c2 *. bget db (o + (2 * sdl)));
            r3 := !r3 +. (bv *. c3 *. bget db (o + (3 * sdl)));
            bo := !bo + sbk;
            dof := !dof + sdk
          done
        done;
        bset ab a0 !r0;
        bset ab (a0 + sal) !r1;
        bset ab (a0 + (2 * sal)) !r2;
        bset ab (a0 + (3 * sal)) !r3;
        lt := !lt + 4
      done
    done;
    if l4 < nl then
      mttkrp_s ~ni ~nl:(nl - l4) ~nj ~nk ab (ao + (l4 * sal)) sai sal bb bo sbi sbj sbk cb
        (co + (l4 * scl)) scj scl db (dof + (l4 * sdl)) sdk sdl
  end

(* {2 Dispatch} *)

(* The shape class picks between the packed micro tier and the simple
   flat loops: packing and register tiles only pay for themselves when
   the register-tiled dimensions have full tiles and the reduction is
   deep enough to amortize the panel gather. Both tiers share the same
   per-element accumulation order, so the class is purely a performance
   choice. *)
let shape_class ~kernel ~dims =
  let p = Distal_support.Ints.prod dims in
  match kernel with
  | _ when not (List.mem kernel kernel_names) ->
      invalid_arg ("Kernel_registry.shape_class: unknown kernel " ^ kernel)
  | _ when p < 512 -> `Simple
  | "gemm" -> if dims.(0) >= 4 && dims.(1) >= 4 && dims.(2) >= 4 then `Micro else `Simple
  | "gemv" -> if dims.(0) >= 4 && dims.(1) >= 8 then `Micro else `Simple
  | "ttv" -> if dims.(1) >= 4 && dims.(2) >= 8 then `Micro else `Simple
  | "ttm" -> if dims.(1) >= 4 && dims.(2) >= 4 && dims.(3) >= 4 then `Micro else `Simple
  | "mttkrp" -> if dims.(1) >= 4 then `Micro else `Simple
  | _ -> `Simple

let arity_error kernel views =
  invalid_arg
    (Printf.sprintf "Kernel_registry.%s: %d operands" kernel (Array.length views))

let run_views ~kernel ~dims (views : view array) =
  let micro = shape_class ~kernel ~dims = `Micro in
  match (kernel, views) with
  | "gemm", [| a; b; c |] ->
      (if micro then gemm_t else gemm_s)
        ~m:dims.(0) ~n:dims.(1) ~k:dims.(2) a.buf a.off a.st.(0) a.st.(1) b.buf b.off
        b.st.(0) b.st.(1) c.buf c.off c.st.(0) c.st.(1)
  | "gemv", [| a; b; c |] ->
      (if micro then gemv_t else gemv_s)
        ~m:dims.(0) ~k:dims.(1) a.buf a.off a.st.(0) b.buf b.off b.st.(0) b.st.(1) c.buf
        c.off c.st.(0)
  | "ttv", [| a; b; c |] ->
      (if micro then ttv_t else ttv_s)
        ~ni:dims.(0) ~nj:dims.(1) ~nk:dims.(2) a.buf a.off a.st.(0) a.st.(1) b.buf b.off
        b.st.(0) b.st.(1) b.st.(2) c.buf c.off c.st.(0)
  | "ttm", [| a; b; c |] ->
      ttm ~micro ~ni:dims.(0) ~nj:dims.(1) ~nl:dims.(2) ~nk:dims.(3) a b c
  | "mttkrp", [| a; b; c; d |] ->
      (if micro then mttkrp_t else mttkrp_s)
        ~ni:dims.(0) ~nl:dims.(1) ~nj:dims.(2) ~nk:dims.(3) a.buf a.off a.st.(0) a.st.(1)
        b.buf b.off b.st.(0) b.st.(1) b.st.(2) c.buf c.off c.st.(0) c.st.(1) d.buf d.off
        d.st.(0) d.st.(1)
  | "innerprod", [| a; x; y |] ->
      innerprod_s ~ni:dims.(0) ~nj:dims.(1) ~nk:dims.(2) a x y
  | k, vs -> arity_error k vs

(* {2 The substitute path: whole [Dense] operands}

   Operands arrive in [Kernel_match.check] order (output first). Shapes
   are unified against the entry's access letters; a mismatch raises
   [Invalid_argument] naming the kernel and every shape, like
   [Kernels]. *)

let dims ~kernel shapes =
  let e = entry kernel in
  let accs = e.lhs :: e.factors in
  let bad () =
    invalid_arg
      (Printf.sprintf "Kernel_registry.%s: incompatible shapes %s" kernel
         (String.concat " "
            (List.map
               (fun s ->
                 "["
                 ^ String.concat "x" (List.map string_of_int (Array.to_list s))
                 ^ "]")
               shapes)))
  in
  if List.length accs <> List.length shapes then bad ();
  let ext : (char, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter2
    (fun acc shape ->
      if String.length acc <> Array.length shape then bad ();
      String.iteri
        (fun d ch ->
          match Hashtbl.find_opt ext ch with
          | Some x -> if x <> shape.(d) then bad ()
          | None -> Hashtbl.replace ext ch shape.(d))
        acc)
    accs shapes;
  Array.init
    (String.length (letters e))
    (fun i -> Hashtbl.find ext (letters e).[i])

let view_of_dense t =
  let st = Distal_support.Ints.row_major_strides (Dense.shape t) in
  { buf = Dense.unsafe_data t; off = 0; st }

let run_named mode ~kernel (ops : Dense.t list) =
  match mode with
  | Off -> (
      (* The contiguous reference kernels. *)
      match (kernel, ops) with
      | "gemm", [ a; b; c ] -> Kernels.gemm ~a ~b ~c
      | "gemv", [ a; b; c ] -> Kernels.gemv ~a ~b ~c
      | "ttv", [ a; b; c ] -> Kernels.ttv ~a ~b ~c
      | "ttm", [ a; b; c ] -> Kernels.ttm ~a ~b ~c
      | "mttkrp", [ a; b; c; d ] -> Kernels.mttkrp ~a ~b ~c ~d
      | "innerprod", [ a; x; y ] -> Dense.add_lin a 0 (Kernels.inner_product x y)
      | k, _ -> invalid_arg ("Kernel_registry.run_named: unknown kernel " ^ k))
  | Tiled ->
      let dims = dims ~kernel (List.map Dense.shape ops) in
      run_views ~kernel ~dims (Array.of_list (List.map view_of_dense ops))
