(* Order statistics over one run's samples.  Percentiles are nearest
   rank: p99 of 1,000 samples is the 990th smallest, so ten samples lie
   beyond it. *)

type acc = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.0; n = 0 }

let add a x =
  if a.n = Array.length a.data then begin
    let d = Array.make (2 * a.n) 0.0 in
    Array.blit a.data 0 d 0 a.n;
    a.data <- d
  end;
  a.data.(a.n) <- x;
  a.n <- a.n + 1

let count a = a.n

let sum a =
  let s = ref 0.0 in
  for i = 0 to a.n - 1 do
    s := !s +. a.data.(i)
  done;
  !s

(* 0.0 on no samples: a layer the workload never calls. *)
let percentile a q =
  if a.n = 0 then 0.0
  else begin
    let d = Array.sub a.data 0 a.n in
    Array.sort Float.compare d;
    let k = int_of_float (Float.ceil (q *. float_of_int a.n)) - 1 in
    d.(max 0 (min (a.n - 1) k))
  end

let median a = percentile a 0.5
