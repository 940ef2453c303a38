//! Micro-benchmarks: trimmable encode/decode throughput per scheme, on the
//! paper's 2¹⁵-coordinate rows.
//!
//! These numbers calibrate `TimeModel::{scalar,rht}_encode_ns_per_coord` and
//! verify the paper's "RHT is about 18% slower than the simpler
//! per-coordinate scalar quantization methods" claim on our implementation.
//!
//! The `row_encode_pipeline` group drives the multi-row [`MessageCodec`]
//! path serially and on a 4-wide [`WorkerPool`], which is what CI's bench
//! smoke job records to `BENCH_encode.json` for the speedup table in
//! EXPERIMENTS.md.
//!
//! The receive side mirrors the encode groups: `decode_into_*` runs the span
//! kernels into a reused buffer, `decode_scalar_*` the retained
//! per-coordinate reference, and `reassemble_row_32k` the `RowAssembler`
//! over one row's packets with every tenth packet trimmed to heads.
//!
//! [`MessageCodec`]: trimgrad::collective::chunk::MessageCodec
//! [`WorkerPool`]: trimgrad_par::WorkerPool

use std::hint::black_box;
use trimgrad::collective::chunk::MessageCodec;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::quant::{scheme_for, EncodedRow, PartialRow, SchemeId};
use trimgrad::wire::packet::NetAddrs;
use trimgrad::wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad::wire::reassemble::RowAssembler;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};
use trimgrad_par::WorkerPool;

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

fn bench_encode(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 1);
    let mut g = Group::new("encode_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        g.bench(id.name(), || scheme.encode(black_box(&data), 42));
    }
    records.extend(g.finish());
}

/// The retained per-coordinate scalar reference (`encode_scalar`), recorded
/// alongside the fused kernels so CI can assert the vectorized path never
/// regresses below the baseline it replaced.
fn bench_encode_scalar(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 1);
    let mut g = Group::new("encode_row_32k_scalar");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        g.bench(id.name(), || scheme.encode_scalar(black_box(&data), 42));
    }
    records.extend(g.finish());
}

fn bench_decode_full(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 2);
    let mut g = Group::new("decode_full_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        let enc = scheme.encode(&data, 42);
        g.bench(id.name(), || {
            scheme
                .decode(&black_box(&enc).full_view(), &enc.meta, 42)
                .expect("valid")
        });
    }
    records.extend(g.finish());
}

fn bench_decode_trimmed(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 3);
    let mut g = Group::new("decode_heads_only_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        let enc = scheme.encode(&data, 42);
        g.bench(id.name(), || {
            scheme
                .decode(&black_box(&enc).trimmed_view(1), &enc.meta, 42)
                .expect("valid")
        });
    }
    records.extend(g.finish());
}

/// Builds the availability view a decode group times.
type ViewFn = fn(&EncodedRow) -> PartialRow<'_>;

/// The two availability shapes the decode groups time.
const VIEWS: [(&str, ViewFn); 2] = [
    ("full_row_32k", EncodedRow::full_view),
    ("heads_only_row_32k", |enc| enc.trimmed_view(1)),
];

/// The span decoders (`decode_into`, into a reused buffer) next to the
/// retained per-coordinate reference (`decode_scalar`), full and heads-only.
fn bench_decode_paths(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 2);
    let encoded: Vec<_> = SchemeId::ALL
        .iter()
        .map(|&id| {
            let scheme = scheme_for(id);
            let enc = scheme.encode(&data, 42);
            (scheme, enc)
        })
        .collect();
    for (shape, view) in VIEWS {
        let mut g = Group::new(&format!("decode_into_{shape}"));
        opts.configure(&mut g);
        g.throughput(Throughput::Elements(n as u64));
        let mut out = vec![0.0; n];
        for (scheme, enc) in &encoded {
            g.bench(scheme.id().name(), || {
                scheme
                    .decode_into(&view(black_box(enc)), &enc.meta, 42, &mut out)
                    .expect("valid");
                out[0]
            });
        }
        records.extend(g.finish());
        let mut g = Group::new(&format!("decode_scalar_{shape}"));
        opts.configure(&mut g);
        g.throughput(Throughput::Elements(n as u64));
        for (scheme, enc) in &encoded {
            g.bench(scheme.id().name(), || {
                scheme
                    .decode_scalar(&view(black_box(enc)), &enc.meta, 42)
                    .expect("valid")
            });
        }
        records.extend(g.finish());
    }
}

/// One row's packets through a fresh `RowAssembler`, every tenth packet
/// trimmed to heads (the benchmark's injected trim rate).
fn bench_reassemble(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 5);
    let mut g = Group::new("reassemble_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let enc = scheme_for(id).encode(&data, 42);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(1, 2),
            msg_id: 0,
            row_id: 0,
            epoch: 0,
        };
        let mut pr = packetize_row(&enc, &cfg);
        for pkt in pr.packets.iter_mut().step_by(10) {
            pkt.trim_to_depth(1).expect("trimmable");
        }
        g.bench(id.name(), || {
            let mut asm = RowAssembler::new(id, 0, 0, n);
            asm.ingest_meta(&pr.meta).expect("meta ok");
            for p in &pr.packets {
                asm.ingest(black_box(p)).expect("packet ok");
            }
            asm.heads_complete()
        });
    }
    records.extend(g.finish());
}

/// An 8-row (2¹⁸-coordinate) message through the codec's row fan-out, with
/// explicit 1- and 4-wide pools. On a multi-core host the `threads4` label
/// should show ≥2× the serial rate; on a single-core CI container the two
/// land within noise of each other (the pool adds only channel overhead).
fn bench_row_pipeline(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 8 << 15;
    let blob = row(n, 4);
    let codec = MessageCodec::new(SchemeId::RhtOneBit, 42);
    let mut g = Group::new("row_encode_pipeline");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for (label, pool) in [
        ("serial", WorkerPool::new(1)),
        ("threads4", WorkerPool::new(4)),
    ] {
        g.bench(label, || {
            codec.encode_message_pooled(black_box(&blob), 0, 0, &pool)
        });
    }
    records.extend(g.finish());
}

/// Parses `--assert-<name> <pct>` from the raw args (ignored by [`BenchOpts`]).
fn assert_flag_limit(name: &str) -> Option<f64> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

fn best_ns(records: &[BenchRecord], group: &str, label: &str) -> f64 {
    records
        .iter()
        .find(|r| r.group == group && r.label == label)
        .unwrap_or_else(|| panic!("missing record {group}/{label}"))
        .best_ns
}

/// Percent by which the 4-wide pooled pipeline is slower than serial
/// (negative = faster). This is the `row_encode_pipeline` threads4
/// regression the striped fan-out fixed; CI keeps it pinned.
fn pool_over_serial_pct(records: &[BenchRecord]) -> f64 {
    let serial = best_ns(records, "row_encode_pipeline", "serial");
    let threads4 = best_ns(records, "row_encode_pipeline", "threads4");
    (threads4 / serial - 1.0) * 100.0
}

/// Worst-scheme percent by which the fused vectorized encode is slower than
/// the retained scalar baseline (negative = faster, the expected state).
fn vectorized_over_scalar_pct(records: &[BenchRecord]) -> (f64, &'static str) {
    let mut worst = (f64::NEG_INFINITY, "none");
    for id in SchemeId::ALL {
        let fused = best_ns(records, "encode_row_32k", id.name());
        let scalar = best_ns(records, "encode_row_32k_scalar", id.name());
        let pct = (fused / scalar - 1.0) * 100.0;
        if pct > worst.0 {
            worst = (pct, id.name());
        }
    }
    worst
}

/// Worst percent, over schemes and both view shapes, by which the span
/// decoders are slower than the per-coordinate reference (negative =
/// faster, the expected state).
fn decode_vectorized_over_scalar_pct(records: &[BenchRecord]) -> (f64, String) {
    let mut worst = (f64::NEG_INFINITY, String::from("none"));
    for (shape, _) in VIEWS {
        for id in SchemeId::ALL {
            let into = best_ns(records, &format!("decode_into_{shape}"), id.name());
            let scalar = best_ns(records, &format!("decode_scalar_{shape}"), id.name());
            let pct = (into / scalar - 1.0) * 100.0;
            if pct > worst.0 {
                worst = (pct, format!("{} {shape}", id.name()));
            }
        }
    }
    worst
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_encode(&opts, &mut records);
    bench_encode_scalar(&opts, &mut records);
    bench_decode_full(&opts, &mut records);
    bench_decode_trimmed(&opts, &mut records);
    bench_decode_paths(&opts, &mut records);
    bench_reassemble(&opts, &mut records);
    bench_row_pipeline(&opts, &mut records);
    opts.write("encode_decode", &records);

    if let Some(limit) = assert_flag_limit("--assert-encode-pool-not-slower") {
        // Best-of-batch timing still jitters on loaded CI machines; give the
        // check a few independent attempts before declaring a regression.
        let mut pct = pool_over_serial_pct(&records);
        let mut worst = f64::NEG_INFINITY;
        let mut ok = false;
        for attempt in 1..=3 {
            println!("pooled vs serial encode, attempt {attempt}: {pct:+.2}% (limit +{limit}%)");
            if pct <= limit {
                ok = true;
                break;
            }
            worst = worst.max(pct);
            if attempt < 3 {
                let mut scratch = Vec::new();
                bench_row_pipeline(&opts, &mut scratch);
                pct = pool_over_serial_pct(&scratch);
            }
        }
        if !ok {
            // trimlint: allow(no-panic) -- the whole point of the flag is to fail CI
            panic!("pooled encode is {worst:.2}% slower than serial (limit +{limit}%)");
        }
    }

    if let Some(limit) = assert_flag_limit("--assert-encode-vectorized-not-slower") {
        let (mut pct, mut scheme) = vectorized_over_scalar_pct(&records);
        let mut worst = (f64::NEG_INFINITY, "none");
        let mut ok = false;
        for attempt in 1..=3 {
            println!(
                "vectorized vs scalar encode ({scheme}), attempt {attempt}: {pct:+.2}% (limit +{limit}%)"
            );
            if pct <= limit {
                ok = true;
                break;
            }
            if pct > worst.0 {
                worst = (pct, scheme);
            }
            if attempt < 3 {
                let mut scratch = Vec::new();
                bench_encode(&opts, &mut scratch);
                bench_encode_scalar(&opts, &mut scratch);
                (pct, scheme) = vectorized_over_scalar_pct(&scratch);
            }
        }
        if !ok {
            // trimlint: allow(no-panic) -- the whole point of the flag is to fail CI
            panic!(
                "vectorized {} encode is {:.2}% slower than the scalar baseline (limit +{limit}%)",
                worst.1, worst.0
            );
        }
    }

    if let Some(limit) = assert_flag_limit("--assert-decode-vectorized-not-slower") {
        let (mut pct, mut which) = decode_vectorized_over_scalar_pct(&records);
        let mut worst = (f64::NEG_INFINITY, String::from("none"));
        let mut ok = false;
        for attempt in 1..=3 {
            println!(
                "span vs scalar decode ({which}), attempt {attempt}: {pct:+.2}% (limit +{limit}%)"
            );
            if pct <= limit {
                ok = true;
                break;
            }
            if pct > worst.0 {
                worst = (pct, which.clone());
            }
            if attempt < 3 {
                let mut scratch = Vec::new();
                bench_decode_paths(&opts, &mut scratch);
                (pct, which) = decode_vectorized_over_scalar_pct(&scratch);
            }
        }
        if !ok {
            // trimlint: allow(no-panic) -- the whole point of the flag is to fail CI
            panic!(
                "span decode ({}) is {:.2}% slower than the scalar baseline (limit +{limit}%)",
                worst.1, worst.0
            );
        }
    }
}
