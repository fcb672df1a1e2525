//! The layer pass of a traced run: timed direct calls into the crypto
//! layers at paper parameters, on the workload's own model and circuits.
//!
//! Each figure is the median over several batches of the per-call mean,
//! so one preempted batch does not move it. The Yao figures come from this
//! file's own garbler/evaluator pair over a `memory_pair`: the repository's
//! `fig06_microbench` binary panics in its Yao section at both scales
//! ("garbler supplied 640 input bits, circuit expects 440"), so its Yao
//! numbers cannot be reused. Input widths here come from the circuits
//! themselves.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pretzel_bignum::{AutoMontgomery, BigUint, FixedUint, MontgomeryCtx};
use pretzel_core::topic::index_width_for;
use pretzel_gc::{
    garble, spam_compare_circuit, topic_argmax_circuit, Circuit, OtGroup, OutputMode, YaoEvaluator,
    YaoGarbler,
};
use pretzel_sdp::rlwe_pack::{self, Packing};
use pretzel_sdp::ModelMatrix;
use pretzel_transport::memory_pair;
use pretzel_transport::wire::{V2Codec, WireCodec};

use crate::workload::{spam_email, Suite};

/// Batches per figure; the reported value is their median.
const BATCHES: usize = 5;

/// One named layer figure.
pub type Figure = (&'static str, f64, &'static str);

/// Median over [`BATCHES`] of the mean time per call of `f` (`per_batch`
/// calls each), in seconds.
fn time_per_call(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[BATCHES / 2]
}

fn random_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// One Yao round of `circuit` per batch call, after one base-OT setup:
/// returns (setup seconds, seconds per round).
fn yao(circuit: &Circuit, rounds: usize) -> (f64, f64) {
    let group = OtGroup::rfc3526_1536();
    let (garbler_end, evaluator_end) = memory_pair();
    let evaluator_circuit = circuit.clone();
    let evaluator_group = group.clone();
    let evaluator = move || {
        let mut chan = evaluator_end;
        let mut rng = StdRng::seed_from_u64(2);
        let mut yao =
            YaoEvaluator::setup(&mut chan, &evaluator_group, &mut rng).expect("evaluator base OTs");
        let inputs = random_bits(&mut rng, evaluator_circuit.evaluator_inputs.len());
        for _ in 0..BATCHES * rounds {
            yao.run(
                &mut chan,
                &evaluator_circuit,
                &inputs,
                OutputMode::EvaluatorOnly,
            )
            .expect("evaluator round");
        }
    };
    let garbler = move || {
        let mut chan = garbler_end;
        let mut rng = StdRng::seed_from_u64(1);
        let start = Instant::now();
        let mut yao = YaoGarbler::setup(&mut chan, &group, &mut rng).expect("garbler base OTs");
        let setup = start.elapsed().as_secs_f64();
        let inputs = random_bits(&mut rng, circuit.garbler_inputs.len());
        let round = time_per_call(rounds, || {
            yao.run(
                &mut chan,
                circuit,
                &inputs,
                OutputMode::EvaluatorOnly,
                &mut rng,
            )
            .expect("garbler round");
        });
        (setup, round)
    };
    let (timing, ()) = std::thread::scope(|s| {
        let e = s.spawn(evaluator);
        let g = garbler();
        (g, e.join().expect("evaluator thread"))
    });
    timing
}

/// Runs the layer pass. `frame_bytes` is the workload's mean frame size,
/// used for the codec figure.
pub fn layer_pass(suite: &Suite, frame_bytes: usize) -> Vec<Figure> {
    let config = &suite.suite.config;
    let mut rng = StdRng::seed_from_u64(5);
    let mut out: Vec<Figure> = Vec::new();

    // bignum: the 1536-bit base-OT group.
    let p = OtGroup::rfc3526_1536().prime().clone();
    let mont = AutoMontgomery::new(&p);
    let base = BigUint::random_bits(&mut rng, 1535);
    let exp = BigUint::random_bits(&mut rng, 1535);
    let pow = time_per_call(8, || {
        black_box(mont.pow(black_box(&base), black_box(&exp)));
    });
    out.push(("bignum.pow_1536_us", pow * 1e6, "us"));
    let ctx = MontgomeryCtx::<24>::new(&p).expect("odd 1536-bit modulus");
    let a = FixedUint::<24>::from_biguint(&base).expect("fits 24 limbs");
    let mut acc = FixedUint::<24>::from_biguint(&exp).expect("fits 24 limbs");
    let mul = time_per_call(20_000, || {
        acc = ctx.mont_mul(black_box(&acc), black_box(&a));
    });
    black_box(&acc);
    out.push(("bignum.mont_mul_1536_ns", mul * 1e9, "ns"));

    // paillier at the paper's 1024-bit modulus (Baseline variant only).
    let sk = pretzel_paillier::keygen(config.paillier_bits, &mut rng);
    let pk = sk.public().clone();
    let m = BigUint::random_bits(&mut rng, 512);
    let ct = pk.encrypt(&m, &mut rng).expect("plaintext below n");
    let enc = time_per_call(4, || {
        black_box(
            pk.encrypt(black_box(&m), &mut rng)
                .expect("plaintext below n"),
        );
    });
    let dec = time_per_call(8, || {
        black_box(sk.decrypt(black_box(&ct)).expect("well-formed ciphertext"));
    });
    out.push(("paillier.enc_1024_us", enc * 1e6, "us"));
    out.push(("paillier.dec_1024_us", dec * 1e6, "us"));

    // rlwe / sdp on the served spam model.
    let params = config.rlwe_params();
    let (rsk, rpk) = pretzel_rlwe::keygen(&params, None, &mut rng);
    let slots: Vec<u64> = (0..params.n as u64).map(|i| i % 1000).collect();
    let rct = rpk.encrypt_slots(&slots, &mut rng).expect("slots fit");
    let renc = time_per_call(20, || {
        black_box(
            rpk.encrypt_slots(black_box(&slots), &mut rng)
                .expect("slots fit"),
        );
    });
    let rdec = time_per_call(20, || {
        black_box(rsk.decrypt(black_box(&rct)));
    });
    out.push(("rlwe.enc_us", renc * 1e6, "us"));
    out.push(("rlwe.dec_us", rdec * 1e6, "us"));
    let q = pretzel_classifiers::QuantizedModel::from_model(&suite.suite.spam, config.weight_bits);
    let matrix = ModelMatrix::from_rows(q.rows, q.cols, q.data.clone());
    let model = rlwe_pack::encrypt_model(&rpk, &matrix, Packing::AcrossRow, &mut rng)
        .expect("quantized weights fit the plaintext modulus");
    let encrypt_model = time_per_call(1, || {
        black_box(
            rlwe_pack::encrypt_model(&rpk, &matrix, Packing::AcrossRow, &mut rng)
                .expect("quantized weights fit the plaintext modulus"),
        );
    });
    out.push(("sdp.encrypt_model_ms", encrypt_model * 1e3, "ms"));
    let emails: Vec<_> = (0..64)
        .map(|_| q.protocol_features(&spam_email(&mut rng), config.freq_bits))
        .collect();
    let mut next = 0;
    let dot = time_per_call(emails.len(), || {
        next = (next + 1) % emails.len();
        black_box(
            rlwe_pack::client_dot_product(&rpk, &model, black_box(&emails[next]))
                .expect("features in range"),
        );
    });
    out.push(("sdp.dot_us", dot * 1e6, "us"));

    // gc: the spam comparison and topic argmax circuits the mailroom serves.
    let width = config.rlwe_plain_bits as usize;
    let spam_circuit = spam_compare_circuit(width);
    let topic_classes = suite.suite.topic.num_classes();
    let topic_circuit = topic_argmax_circuit(topic_classes, width, index_width_for(topic_classes));
    let garble_spam = time_per_call(200, || {
        black_box(garble(black_box(&spam_circuit), &mut rng));
    });
    let garble_topic = time_per_call(200, || {
        black_box(garble(black_box(&topic_circuit), &mut rng));
    });
    out.push(("gc.garble_spam_us", garble_spam * 1e6, "us"));
    out.push(("gc.garble_topic_us", garble_topic * 1e6, "us"));
    let (base_ot, round) = yao(&spam_circuit, 40);
    out.push(("gc.base_ot_ms", base_ot * 1e3, "ms"));
    out.push(("gc.yao_round_us", round * 1e6, "us"));

    // transport: the v2 codec (length + CRC framing) on a typical frame.
    let payload: Vec<u8> = (0..frame_bytes.max(1)).map(|i| i as u8).collect();
    let codec = V2Codec;
    let frame = time_per_call(2_000, || {
        let framed = codec.encode(black_box(&payload));
        black_box(codec.decode(&framed).expect("own frame decodes"));
    });
    out.push(("transport.codec_v2_us_per_frame", frame * 1e6, "us"));
    out
}
