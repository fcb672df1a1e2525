//! Private topic extraction with decomposed classification (paper §4.3,
//! Figure 5, Figures 10–14).
//!
//! Roles are the mirror image of spam filtering: the **provider** obtains the
//! output (one topic index per email, Guarantee 3 of §4.4) and the client's
//! email — and even which candidate topics were considered — stays hidden.
//! Consequently the *client* garbles the argmax circuit and the *provider*
//! evaluates it, which is also what gives the client the paper's
//! plausible-deniability opt-out (§4.4 "Integrity").
//!
//! Decomposed classification (§4.3): the client first runs a public,
//! non-proprietary candidate model locally to map the email to B′ candidate
//! topics, then the secure protocol picks the best candidate using the
//! provider's proprietary model. Setting `candidates = None` disables the
//! decomposition (the "Pretzel (B′=B)" and Baseline configurations of
//! Figures 10 and 11).

use std::sync::Arc;

use rand::{Rng, RngCore};

use pretzel_classifiers::{LinearModel, SparseVector};
use pretzel_gc::{
    from_bits, to_bits, topic_argmax_circuit, Circuit, GarblingPool, OtGroup, OtSenderPrecomp,
    OutputMode, YaoEvaluator, YaoGarbler,
};
use pretzel_sdp::paillier_pack::{self, PaillierPackParams};
use pretzel_sdp::rlwe_pack::{self, Packing};
use pretzel_transport::{pack_frames, unpack_frames, Channel};

use crate::bank::{self, PrecomputeSource, ReservoirId, ReservoirSpec};
use crate::config::PretzelConfig;
use crate::registry::{ClientContext, ClientModule, FunctionModule, ProviderModule, WireTag};
use crate::session::{EmailPayload, ProviderModelSuite, Verdict};
use crate::setup::{joint_randomness_initiator, joint_randomness_responder};
use crate::spam::{quantize_to_matrix, AheVariant};
use crate::{parse_u64, u64_bytes, PretzelError, Result};

/// How many candidates the client prunes to before the secure step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateMode {
    /// Decomposed classification with B′ candidates (§4.3).
    Decomposed(usize),
    /// No decomposition: the secure argmax ranges over all B topics.
    Full,
}

impl CandidateMode {
    fn count(&self, categories: usize) -> usize {
        match self {
            CandidateMode::Decomposed(b_prime) => (*b_prime).min(categories),
            CandidateMode::Full => categories,
        }
    }
}

enum ProviderCrypto {
    Pretzel {
        sk: pretzel_rlwe::SecretKey,
    },
    Baseline {
        // Boxed: a Paillier secret key (CRT contexts included) dwarfs the
        // RLWE variant, and clippy::large_enum_variant fires otherwise.
        sk: Box<pretzel_paillier::SecretKey>,
        slot_bits: u32,
        slots_per_ct: usize,
    },
}

/// Provider endpoint of the topic-extraction module.
pub struct TopicProvider {
    crypto: ProviderCrypto,
    yao: YaoEvaluator,
    circuit: Circuit,
    width: usize,
    index_width: usize,
    candidates: usize,
    categories: usize,
}

enum ClientCrypto {
    Pretzel {
        pk: pretzel_rlwe::PublicKey,
        model: rlwe_pack::EncryptedModel,
    },
    Baseline {
        pk: pretzel_paillier::PublicKey,
        model: paillier_pack::PaillierEncryptedModel,
    },
}

/// Client endpoint of the topic-extraction module.
pub struct TopicClient {
    crypto: ClientCrypto,
    yao: YaoGarbler,
    circuit: Circuit,
    width: usize,
    index_width: usize,
    mode: CandidateMode,
    candidates: usize,
    categories: usize,
    bias_row: usize,
    max_freq: u64,
    /// Public, non-proprietary candidate model (required for decomposition).
    candidate_model: Option<LinearModel>,
    /// Offline-garbled argmax circuits awaiting their online rounds (the
    /// client garbles in this module — roles are mirrored vs. spam).
    ready: GarblingPool,
    /// Offline-precomputed Paillier randomizers (Baseline variant only).
    pool: pretzel_paillier::RandomnessPool,
}

impl TopicProvider {
    /// Setup phase, provider side: ship the encrypted proprietary topic model
    /// and establish the Yao session (as evaluator — the client garbles).
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        config: &PretzelConfig,
        variant: AheVariant,
        mode: CandidateMode,
        rng: &mut R,
    ) -> Result<Self> {
        Self::setup_with_ot_base(channel, model, config, variant, mode, None, rng)
    }

    /// Like [`TopicProvider::setup`], but consuming a pre-generated base-OT
    /// sender artifact (the provider is the Yao *evaluator* here, and the
    /// IKNP extension receiver plays the base-OT sender). The artifact must
    /// have been generated for the session's OT group — only possible at
    /// paper scale, where the group is the fixed RFC 3526 one — and a
    /// mismatched or absent artifact falls back to inline base-OT
    /// generation, which produces an identical protocol transcript shape.
    pub fn setup_with_ot_base<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        model: &LinearModel,
        config: &PretzelConfig,
        variant: AheVariant,
        mode: CandidateMode,
        base: Option<OtSenderPrecomp>,
        rng: &mut R,
    ) -> Result<Self> {
        let (_, matrix) = quantize_to_matrix(model, config.weight_bits);
        let categories = matrix.cols();
        let candidates = mode.count(categories);
        let seed = joint_randomness_initiator(channel, rng)?;

        channel.send(&u64_bytes(matrix.rows() as u64))?;
        channel.send(&u64_bytes(matrix.cols() as u64))?;

        let (crypto, width) = match variant {
            AheVariant::Pretzel | AheVariant::PretzelNoOptimPack => {
                let params = config.rlwe_params();
                let (sk, pk) = pretzel_rlwe::keygen(&params, Some(&seed), rng);
                let packing = if variant == AheVariant::Pretzel {
                    Packing::AcrossRow
                } else {
                    Packing::LegacyPerRow
                };
                let enc = rlwe_pack::encrypt_model(&pk, &matrix, packing, rng)?;
                channel.send(&pk.to_bytes())?;
                channel.send(&u64_bytes(enc.ciphertext_count() as u64))?;
                let mut blob =
                    Vec::with_capacity(enc.ciphertext_count() * params.ciphertext_bytes());
                for ct in enc.ciphertexts() {
                    blob.extend_from_slice(&ct.to_bytes());
                }
                channel.send(&blob)?;
                (
                    ProviderCrypto::Pretzel { sk },
                    config.rlwe_plain_bits as usize,
                )
            }
            AheVariant::Baseline => {
                let sk = pretzel_paillier::keygen(config.paillier_bits, rng);
                let pk = sk.public().clone();
                let pack = PaillierPackParams {
                    slot_bits: config.paillier_slot_bits,
                };
                let slots_per_ct = pack.slots_per_ct(&pk);
                let enc = paillier_pack::encrypt_model(&pk, &matrix, pack, rng)?;
                channel.send(&pk.to_bytes())?;
                channel.send(&u64_bytes(enc.ciphertext_count() as u64))?;
                let ct_len = pretzel_paillier::Ciphertext::serialized_len(pk.n_bits());
                let mut blob = Vec::with_capacity(enc.ciphertext_count() * ct_len);
                for ct in enc.ciphertexts() {
                    blob.extend_from_slice(&ct.to_bytes(&pk));
                }
                channel.send(&blob)?;
                (
                    ProviderCrypto::Baseline {
                        sk: Box::new(sk),
                        slot_bits: config.paillier_slot_bits,
                        slots_per_ct,
                    },
                    config.paillier_slot_bits as usize,
                )
            }
        };

        let index_width = index_width_for(categories);
        let group = config.ot_group(&seed);
        let yao = match base.filter(|pre| pre.matches(&group)) {
            Some(pre) => YaoEvaluator::setup_with_base(channel, &group, pre, rng)?,
            None => YaoEvaluator::setup(channel, &group, rng)?,
        };
        Ok(TopicProvider {
            crypto,
            yao,
            circuit: topic_argmax_circuit(candidates, width, index_width),
            width,
            index_width,
            candidates,
            categories,
        })
    }

    /// Number of output bits the provider learns per processed email — the
    /// bound of Guarantee 3 (§4.4): at most `log B` bits, where `B` is the
    /// number of categories in the model.
    pub fn output_bits_per_email(&self) -> usize {
        self.index_width
    }

    /// Offline phase, provider side: a no-op returning 0. The topic provider
    /// evaluates (the client garbles, so the circuit pool lives in
    /// [`TopicClient`]), and its CRT decryption contexts are precomputed once
    /// at key generation.
    pub fn precompute<R: Rng + ?Sized>(&mut self, _target: usize, _rng: &mut R) -> usize {
        0
    }

    /// Always 0 — see [`TopicProvider::precompute`].
    pub fn pool_depth(&self) -> usize {
        0
    }

    /// Per-email phase, provider side: decrypts the blinded candidate dot
    /// products and evaluates the client-garbled argmax circuit, learning the
    /// chosen topic index (at most log B bits, Guarantee 3).
    pub fn process_email<C: Channel>(&mut self, channel: &mut C) -> Result<usize> {
        let blob = channel.recv()?;
        let evaluator_bits = self.evaluator_bits_for(&blob)?;
        let out = self
            .yao
            .run(
                channel,
                &self.circuit,
                &evaluator_bits,
                OutputMode::EvaluatorOnly,
            )?
            .ok_or_else(|| PretzelError::Protocol("missing Yao output".into()))?;
        Ok(from_bits(&out) as usize)
    }

    /// Batched per-email phase: serves `count` extraction rounds whose
    /// blinded candidate accumulators arrive as one coalesced frame, running
    /// one batched Yao evaluation. The returned indices equal `count`
    /// sequential [`TopicProvider::process_email`] rounds. An empty batch
    /// exchanges no traffic, mirroring [`TopicClient::extract_batch`].
    pub fn process_email_batch<C: Channel>(
        &mut self,
        channel: &mut C,
        count: usize,
    ) -> Result<Vec<usize>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let blobs = unpack_frames(&channel.recv()?).map_err(PretzelError::Transport)?;
        if blobs.len() != count {
            return Err(PretzelError::Protocol(format!(
                "batch announced {count} rounds but carried {}",
                blobs.len()
            )));
        }
        let inputs = blobs
            .iter()
            .map(|blob| self.evaluator_bits_for(blob))
            .collect::<Result<Vec<_>>>()?;
        let outs =
            self.yao
                .run_batch(channel, &self.circuit, &inputs, OutputMode::EvaluatorOnly)?;
        outs.into_iter()
            .map(|out| {
                out.map(|bits| from_bits(&bits) as usize)
                    .ok_or_else(|| PretzelError::Protocol("missing Yao output".into()))
            })
            .collect()
    }

    /// Decrypts one round's blinded candidate values into evaluator bits.
    fn evaluator_bits_for(&self, blob: &[u8]) -> Result<Vec<bool>> {
        let blinded: Vec<u64> = match &self.crypto {
            ProviderCrypto::Pretzel { sk } => {
                let params = sk.params();
                let ct_len = params.ciphertext_bytes();
                if !blob.len().is_multiple_of(ct_len) {
                    return Err(PretzelError::Protocol("bad per-email blob".into()));
                }
                let cts = blob
                    .chunks_exact(ct_len)
                    .map(|c| pretzel_rlwe::Ciphertext::from_bytes(params, c))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(|e| PretzelError::Ahe(e.to_string()))?;
                if cts.len() == self.candidates {
                    // Decomposed: one ciphertext per candidate, value in slot 0.
                    cts.iter().map(|ct| sk.decrypt_slots(ct)[0]).collect()
                } else {
                    // Full mode: accumulators carrying all B columns.
                    rlwe_pack::provider_decrypt_columns(sk, &cts, self.categories)
                }
            }
            ProviderCrypto::Baseline {
                sk,
                slot_bits,
                slots_per_ct,
            } => {
                let ct_len = pretzel_paillier::Ciphertext::serialized_len(sk.public().n_bits());
                if !blob.len().is_multiple_of(ct_len) {
                    return Err(PretzelError::Protocol("bad per-email blob".into()));
                }
                let cts: Vec<_> = blob
                    .chunks_exact(ct_len)
                    .map(pretzel_paillier::Ciphertext::from_bytes)
                    .collect();
                paillier_pack::provider_decrypt(
                    sk,
                    self.categories,
                    *slot_bits,
                    *slots_per_ct,
                    &cts,
                )?
            }
        };
        if blinded.len() < self.candidates {
            return Err(PretzelError::Protocol(format!(
                "expected at least {} blinded values, got {}",
                self.candidates,
                blinded.len()
            )));
        }
        let mask = bits_mask(self.width);
        let mut evaluator_bits = Vec::with_capacity(self.candidates * self.width);
        for &v in blinded.iter().take(self.candidates) {
            evaluator_bits.extend(to_bits(v & mask, self.width));
        }
        Ok(evaluator_bits)
    }
}

impl TopicClient {
    /// Setup phase, client side. `candidate_model` is the public,
    /// non-proprietary classifier used for the local pruning step; it is
    /// required when `mode` is [`CandidateMode::Decomposed`].
    pub fn setup<C: Channel, R: Rng + ?Sized>(
        channel: &mut C,
        config: &PretzelConfig,
        variant: AheVariant,
        mode: CandidateMode,
        candidate_model: Option<LinearModel>,
        rng: &mut R,
    ) -> Result<Self> {
        if matches!(mode, CandidateMode::Decomposed(_)) && candidate_model.is_none() {
            return Err(PretzelError::Protocol(
                "decomposed classification requires a candidate model".into(),
            ));
        }
        let seed = joint_randomness_responder(channel, rng)?;
        let rows = parse_u64(&channel.recv()?)? as usize;
        let cols = parse_u64(&channel.recv()?)? as usize;
        let candidates = mode.count(cols);

        let (crypto, width) = match variant {
            AheVariant::Pretzel | AheVariant::PretzelNoOptimPack => {
                let params = config.rlwe_params();
                let pk = pretzel_rlwe::PublicKey::from_bytes(&params, &channel.recv()?)
                    .map_err(|e| PretzelError::Ahe(e.to_string()))?;
                let count = parse_u64(&channel.recv()?)? as usize;
                let blob = channel.recv()?;
                let ct_len = params.ciphertext_bytes();
                if blob.len() != count * ct_len {
                    return Err(PretzelError::Protocol("bad model blob size".into()));
                }
                let cts = blob
                    .chunks_exact(ct_len)
                    .map(|c| pretzel_rlwe::Ciphertext::from_bytes(&params, c))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(|e| PretzelError::Ahe(e.to_string()))?;
                let packing = if variant == AheVariant::Pretzel {
                    Packing::AcrossRow
                } else {
                    Packing::LegacyPerRow
                };
                let model =
                    rlwe_pack::EncryptedModel::from_parts(packing, cts, rows, cols, params.slots());
                (
                    ClientCrypto::Pretzel { pk, model },
                    config.rlwe_plain_bits as usize,
                )
            }
            AheVariant::Baseline => {
                let pk = pretzel_paillier::PublicKey::from_bytes(&channel.recv()?)
                    .map_err(|e| PretzelError::Ahe(e.to_string()))?;
                let count = parse_u64(&channel.recv()?)? as usize;
                let blob = channel.recv()?;
                let ct_len = pretzel_paillier::Ciphertext::serialized_len(pk.n_bits());
                if blob.len() != count * ct_len {
                    return Err(PretzelError::Protocol("bad model blob size".into()));
                }
                let cts: Vec<_> = blob
                    .chunks_exact(ct_len)
                    .map(pretzel_paillier::Ciphertext::from_bytes)
                    .collect();
                let pack = PaillierPackParams {
                    slot_bits: config.paillier_slot_bits,
                };
                let slots_per_ct = pack.slots_per_ct(&pk);
                let model = paillier_pack::PaillierEncryptedModel::from_parts(
                    pack,
                    cts,
                    rows,
                    cols,
                    slots_per_ct,
                );
                (
                    ClientCrypto::Baseline { pk, model },
                    config.paillier_slot_bits as usize,
                )
            }
        };

        let index_width = index_width_for(cols);
        let group = config.ot_group(&seed);
        let yao = YaoGarbler::setup(channel, &group, rng)?;
        Ok(TopicClient {
            crypto,
            yao,
            circuit: topic_argmax_circuit(candidates, width, index_width),
            width,
            index_width,
            mode,
            candidates,
            categories: cols,
            bias_row: rows - 1,
            max_freq: config.max_frequency(),
            candidate_model,
            ready: GarblingPool::new(),
            pool: pretzel_paillier::RandomnessPool::new(),
        })
    }

    /// Offline phase, client side: pre-garbles argmax circuits (the client
    /// is the garbler here) and, for the Baseline variant, precomputes the
    /// Paillier randomizers `target` future rounds will consume. Returns the
    /// number of work units (circuits + randomizers) produced.
    pub fn precompute<R: Rng + ?Sized>(&mut self, target: usize, rng: &mut R) -> usize {
        let mut added = self.ready.refill(&self.circuit, target, rng);
        if let ClientCrypto::Baseline { pk, model } = &self.crypto {
            added += self
                .pool
                .refill(pk, target.saturating_mul(model.result_ciphertexts()), rng);
        }
        added
    }

    /// Rounds the offline circuit pool can currently serve without inline
    /// garbling.
    pub fn pool_depth(&self) -> usize {
        self.ready.depth()
    }

    /// Client-side storage consumed by the encrypted model (Figure 12).
    pub fn model_storage_bytes(&self) -> usize {
        match &self.crypto {
            ClientCrypto::Pretzel { pk, model } => model.size_bytes(pk),
            ClientCrypto::Baseline { pk, model } => model.size_bytes(pk),
        }
    }

    /// The candidate topics the client would submit for an email — exposed
    /// for the Figure 14 analysis and tests.
    pub fn candidate_topics(&self, features: &SparseVector) -> Vec<usize> {
        match (&self.mode, &self.candidate_model) {
            (CandidateMode::Decomposed(_), Some(model)) => model.top_k(features, self.candidates),
            _ => (0..self.categories).collect(),
        }
    }

    fn protocol_features(&self, features: &SparseVector) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = features
            .iter()
            .filter(|&(i, _)| i < self.bias_row)
            .map(|(i, c)| (i, (c as u64).min(self.max_freq)))
            .collect();
        out.push((self.bias_row, 1));
        out
    }

    /// Per-email phase, client side: runs the secure topic extraction for one
    /// decrypted email. The client learns nothing; the provider learns the
    /// selected topic index. Returns the candidate set that was submitted
    /// (useful for tests and diagnostics — it is local information the client
    /// already knows).
    pub fn extract<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<Vec<usize>> {
        let (blob, candidate_cols, garbler_bits) = self.blinded_round(features, rng)?;
        channel.send(&blob)?;
        // Online phase: draw an offline-garbled circuit if one is pooled,
        // fall back to inline garbling otherwise.
        let pre = self.ready.draw(&self.circuit, rng);
        self.yao.run_precomputed(
            channel,
            &self.circuit,
            pre,
            &garbler_bits,
            OutputMode::EvaluatorOnly,
        )?;
        Ok(candidate_cols)
    }

    /// Batched per-email phase: runs one extraction round per email as a
    /// single coalesced exchange against a provider executing
    /// [`TopicProvider::process_email_batch`] with the same count. Every
    /// blinded accumulator travels in one frame, the client draws its pooled
    /// pre-garbled argmax circuits in bulk, and the argmax circuits run as
    /// one batched Yao exchange. Returns each email's submitted candidate
    /// set, exactly as sequential [`TopicClient::extract`] calls would.
    pub fn extract_batch<C: Channel, R: Rng + ?Sized>(
        &mut self,
        channel: &mut C,
        emails: &[&SparseVector],
        rng: &mut R,
    ) -> Result<Vec<Vec<usize>>> {
        if emails.is_empty() {
            return Ok(Vec::new());
        }
        let mut blobs = Vec::with_capacity(emails.len());
        let mut candidate_sets = Vec::with_capacity(emails.len());
        let mut inputs = Vec::with_capacity(emails.len());
        for features in emails {
            let (blob, candidate_cols, garbler_bits) = self.blinded_round(features, rng)?;
            blobs.push(blob);
            candidate_sets.push(candidate_cols);
            inputs.push(garbler_bits);
        }
        channel.send(&pack_frames(&blobs))?;
        let pres = self.ready.draw_many(&self.circuit, emails.len(), rng);
        self.yao.run_batch(
            channel,
            &self.circuit,
            pres,
            &inputs,
            OutputMode::EvaluatorOnly,
        )?;
        Ok(candidate_sets)
    }

    /// Computes one email's blinded candidate accumulators (drawing pooled
    /// Paillier randomizers when available), the candidate set, and the
    /// matching garbler input bits, without touching the channel.
    #[allow(clippy::type_complexity)]
    fn blinded_round<R: Rng + ?Sized>(
        &mut self,
        features: &SparseVector,
        rng: &mut R,
    ) -> Result<(Vec<u8>, Vec<usize>, Vec<bool>)> {
        let sparse = self.protocol_features(features);
        let candidate_cols = self.candidate_topics(features);
        let mask = bits_mask(self.width);

        // Dot products, candidate extraction (Pretzel decomposed) or full
        // accumulators, and blinding.
        let mut blob = Vec::new();
        let noises: Vec<u64> = match &self.crypto {
            ClientCrypto::Pretzel { pk, model } => {
                let accs = rlwe_pack::client_dot_product(pk, model, &sparse)?;
                match self.mode {
                    CandidateMode::Decomposed(_) => {
                        let extracted = rlwe_pack::extract_candidates(
                            pk,
                            &accs,
                            self.categories,
                            &candidate_cols,
                        )?;
                        let mut noises = Vec::with_capacity(extracted.len());
                        for ct in &extracted {
                            let (blinded, noise) = rlwe_pack::blind(pk, ct, 1, rng);
                            blob.extend_from_slice(&blinded.to_bytes());
                            noises.push(noise[0]);
                        }
                        noises
                    }
                    CandidateMode::Full => {
                        let slots = pk.params().slots();
                        let mut noises = vec![0u64; self.categories];
                        for (g, acc) in accs.iter().enumerate() {
                            let (blinded, noise) = rlwe_pack::blind(pk, acc, slots, rng);
                            blob.extend_from_slice(&blinded.to_bytes());
                            for (s, &n) in noise.iter().enumerate() {
                                let col = g * slots + s;
                                if col < self.categories {
                                    noises[col] = n;
                                }
                            }
                        }
                        noises
                    }
                }
            }
            ClientCrypto::Baseline { pk, model } => {
                let accs = paillier_pack::client_dot_product_pooled(
                    pk,
                    model,
                    &sparse,
                    &mut self.pool,
                    rng,
                )?;
                let slots = model.slots_per_ct();
                let mut noises = vec![0u64; self.categories];
                for (g, acc) in accs.iter().enumerate() {
                    let (blinded, noise) = paillier_pack::blind(pk, model, acc, slots, rng);
                    blob.extend_from_slice(&blinded.to_bytes(pk));
                    for (s, &n) in noise.iter().enumerate() {
                        let col = g * slots + s;
                        if col < self.categories {
                            noises[col] = n;
                        }
                    }
                }
                noises
            }
        };

        // Garbler inputs: candidate indices, then per-candidate noises.
        let mut garbler_bits =
            Vec::with_capacity(self.candidates * (self.index_width + self.width));
        for &col in &candidate_cols {
            garbler_bits.extend(to_bits(col as u64, self.index_width));
        }
        for (j, &col) in candidate_cols.iter().enumerate() {
            let noise = match self.mode {
                CandidateMode::Decomposed(_) => noises[j],
                CandidateMode::Full => noises[col],
            };
            garbler_bits.extend(to_bits(noise & mask, self.width));
        }
        Ok((blob, candidate_cols, garbler_bits))
    }
}

/// Bit width needed to represent a topic index in `0..categories`.
pub fn index_width_for(categories: usize) -> usize {
    (usize::BITS - (categories.max(2) - 1).leading_zeros()) as usize
}

/// Offline helper for Figure 14: the fraction of `test` documents whose
/// reference label (per `reference_model`) appears among the top-B′
/// candidates of `candidate_model`.
pub fn candidate_hit_rate(
    candidate_model: &LinearModel,
    reference_model: &LinearModel,
    test: &[pretzel_classifiers::LabeledExample],
    b_prime: usize,
) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let hits = test
        .iter()
        .filter(|ex| {
            let reference = reference_model.predict(&ex.features);
            candidate_model
                .top_k(&ex.features, b_prime)
                .contains(&reference)
        })
        .count();
    hits as f64 / test.len() as f64
}

fn bits_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The registrable topic-extraction function module (wire tag 2).
pub struct TopicFunction;

impl TopicFunction {
    /// Handshake byte of the topic module.
    pub const WIRE_TAG: WireTag = 2;
}

impl FunctionModule for TopicFunction {
    fn wire_tag(&self) -> WireTag {
        Self::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    fn provider_setup(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        Ok(Box::new(TopicProvider::setup(
            &mut channel,
            &suite.topic,
            &suite.config,
            variant,
            suite.topic_mode,
            rng,
        )?))
    }

    fn client_setup(
        &self,
        mut channel: &mut dyn Channel,
        ctx: &ClientContext,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ClientModule>> {
        Ok(Box::new(TopicClient::setup(
            &mut channel,
            &ctx.config,
            ctx.variant,
            ctx.topic_mode,
            ctx.candidate_model.clone(),
            rng,
        )?))
    }

    fn fleet_plan(&self, suite: &ProviderModelSuite) -> Vec<ReservoirSpec> {
        base_ot_fleet_plan(&suite.config)
    }

    fn provider_setup_with_source(
        &self,
        mut channel: &mut dyn Channel,
        suite: &ProviderModelSuite,
        variant: AheVariant,
        source: &Arc<dyn PrecomputeSource>,
        rng: &mut dyn RngCore,
    ) -> Result<Box<dyn ProviderModule>> {
        let base = draw_base_ot(source, &suite.config);
        Ok(Box::new(TopicProvider::setup_with_ot_base(
            &mut channel,
            &suite.topic,
            &suite.config,
            variant,
            suite.topic_mode,
            base,
            rng,
        )?))
    }
}

/// Fleet plan for the base-OT sender reservoir. Only meaningful at paper
/// scale: test-scale OT groups are derived from each session's joint
/// randomness, so no fleet-wide artifact can be generated ahead of a session.
pub(crate) fn base_ot_fleet_plan(config: &PretzelConfig) -> Vec<ReservoirSpec> {
    if config.ot_group_bits < 1536 {
        return Vec::new();
    }
    let group = OtGroup::rfc3526_1536();
    let id = ReservoirId::base_ots(group.fingerprint());
    vec![ReservoirSpec::new(
        id,
        Arc::new(move |rng: &mut dyn RngCore| {
            Box::new(OtSenderPrecomp::generate(&group, rng)) as bank::Artifact
        }),
    )]
}

/// Draws one pre-generated base-OT sender artifact for the fixed RFC 3526
/// group, counting a bank fallback when the reservoir is dry. Returns `None`
/// (inline generation) at test scale, where the group is session-derived.
fn draw_base_ot(
    source: &Arc<dyn PrecomputeSource>,
    config: &PretzelConfig,
) -> Option<OtSenderPrecomp> {
    if config.ot_group_bits < 1536 {
        return None;
    }
    let group = OtGroup::rfc3526_1536();
    let id = ReservoirId::base_ots(group.fingerprint());
    match source
        .draw(&id)
        .and_then(|artifact| artifact.downcast::<OtSenderPrecomp>().ok())
    {
        Some(pre) if pre.matches(&group) => Some(*pre),
        _ => {
            source.record_fallback(&id);
            None
        }
    }
}

impl ProviderModule for TopicProvider {
    fn wire_tag(&self) -> WireTag {
        TopicFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    fn precompute(&mut self, budget: usize, rng: &mut dyn RngCore) -> usize {
        TopicProvider::precompute(self, budget, rng)
    }

    fn pool_depth(&self) -> usize {
        TopicProvider::pool_depth(self)
    }

    fn process_round(
        &mut self,
        mut channel: &mut dyn Channel,
        _rng: &mut dyn RngCore,
    ) -> Result<Option<usize>> {
        Ok(Some(self.process_email(&mut channel)?))
    }

    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        count: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Option<usize>>> {
        Ok(self
            .process_email_batch(&mut channel, count)?
            .into_iter()
            .map(Some)
            .collect())
    }
}

impl ClientModule for TopicClient {
    fn wire_tag(&self) -> WireTag {
        TopicFunction::WIRE_TAG
    }

    fn display_name(&self) -> &'static str {
        "topic"
    }

    fn model_storage_bytes(&self) -> usize {
        TopicClient::model_storage_bytes(self)
    }

    fn precompute(&mut self, budget: usize, rng: &mut dyn RngCore) -> usize {
        TopicClient::precompute(self, budget, rng)
    }

    fn pool_depth(&self) -> usize {
        TopicClient::pool_depth(self)
    }

    fn process_round(
        &mut self,
        mut channel: &mut dyn Channel,
        payload: &EmailPayload,
        rng: &mut dyn RngCore,
    ) -> Result<Verdict> {
        match payload {
            EmailPayload::Tokens(features) => Ok(Verdict::Topic {
                candidates: self.extract(&mut channel, features, rng)?,
            }),
            other => Err(crate::session::payload_mismatch("topic", other)),
        }
    }

    fn process_batch(
        &mut self,
        mut channel: &mut dyn Channel,
        payloads: &[EmailPayload],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Verdict>> {
        let emails = payloads
            .iter()
            .map(|p| match p {
                EmailPayload::Tokens(features) => Ok(features),
                other => Err(crate::session::payload_mismatch("topic", other)),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(self
            .extract_batch(&mut channel, &emails, rng)?
            .into_iter()
            .map(|candidates| Verdict::Topic { candidates })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_classifiers::nb::MultinomialNbTrainer;
    use pretzel_classifiers::{LabeledExample, Trainer};
    use pretzel_transport::run_two_party;

    fn example(pairs: &[(usize, u32)], label: usize) -> LabeledExample {
        LabeledExample {
            features: SparseVector::from_pairs(pairs.to_vec()),
            label,
        }
    }

    /// Six topics over 24 features; topic t owns features 4t..4t+4.
    fn topic_corpus() -> Vec<LabeledExample> {
        let mut corpus = Vec::new();
        for round in 0..10u32 {
            for topic in 0..6usize {
                let base = topic * 4;
                corpus.push(example(
                    &[
                        (base, 2 + round % 2),
                        (base + 1, 1),
                        (base + 2 + (round as usize % 2), 1),
                    ],
                    topic,
                ));
            }
        }
        corpus
    }

    fn run_topic_exchange(variant: AheVariant, mode: CandidateMode) {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        // The public candidate model is trained on a small subset (as §4.3
        // envisions); here the first third of the corpus.
        let candidate_model =
            MultinomialNbTrainer::default().train(&corpus[..corpus.len() / 3], 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();

        // Emails clearly about topic 2 and topic 5.
        let email_t2 = SparseVector::from_pairs(vec![(8, 3), (9, 2), (10, 1)]);
        let email_t5 = SparseVector::from_pairs(vec![(20, 2), (21, 2), (23, 1)]);
        let email_t2_b = email_t2.clone();
        let email_t5_b = email_t5.clone();

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<usize>> {
                let mut rng = rand::thread_rng();
                let mut provider =
                    TopicProvider::setup(chan, &provider_model, &config, variant, mode, &mut rng)?;
                let t1 = provider.process_email(chan)?;
                let t2 = provider.process_email(chan)?;
                Ok(vec![t1, t2])
            },
            move |chan| -> Result<(Vec<usize>, Vec<usize>)> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    variant,
                    mode,
                    Some(candidate_model),
                    &mut rng,
                )?;
                let c1 = client.extract(chan, &email_t2_b, &mut rng)?;
                let c2 = client.extract(chan, &email_t5_b, &mut rng)?;
                Ok((c1, c2))
            },
        );
        let topics = provider_res.unwrap();
        let (cands1, cands2) = client_res.unwrap();
        assert_eq!(topics[0], 2, "{variant:?} {mode:?}: topic of email 1");
        assert_eq!(topics[1], 5, "{variant:?} {mode:?}: topic of email 2");
        // The provider's answer must be among the candidates the client sent.
        assert!(cands1.contains(&topics[0]));
        assert!(cands2.contains(&topics[1]));

        // Cross-check against the non-private reference.
        let noprivate = crate::NoPrivProvider::new(model);
        assert_eq!(noprivate.classify(&email_t2), 2);
        assert_eq!(noprivate.classify(&email_t5), 5);
    }

    #[test]
    fn pretzel_decomposed_topic_extraction() {
        run_topic_exchange(AheVariant::Pretzel, CandidateMode::Decomposed(3));
    }

    /// The offline circuit pool lives client-side in this module; warming it
    /// must not change the topic the provider learns.
    #[test]
    fn precomputed_topic_extraction_matches_inline() {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let email = SparseVector::from_pairs(vec![(8, 3), (9, 2), (10, 1)]);

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<usize>> {
                let mut rng = rand::thread_rng();
                let mut provider = TopicProvider::setup(
                    chan,
                    &provider_model,
                    &config,
                    AheVariant::Baseline,
                    CandidateMode::Full,
                    &mut rng,
                )?;
                assert_eq!(provider.precompute(4, &mut rng), 0, "evaluator side");
                assert_eq!(provider.pool_depth(), 0);
                let t1 = provider.process_email(chan)?;
                let t2 = provider.process_email(chan)?;
                Ok(vec![t1, t2])
            },
            move |chan| -> Result<()> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    AheVariant::Baseline,
                    CandidateMode::Full,
                    None,
                    &mut rng,
                )?;
                // Warm one round's worth: round 1 draws from the pool,
                // round 2 hits the dry-pool inline fallback.
                assert!(client.precompute(1, &mut rng) > 0);
                assert_eq!(client.pool_depth(), 1);
                client.extract(chan, &email, &mut rng)?;
                assert_eq!(client.pool_depth(), 0);
                client.extract(chan, &email, &mut rng)?;
                Ok(())
            },
        );
        client_res.unwrap();
        assert_eq!(provider_res.unwrap(), vec![2, 2]);
    }

    #[test]
    fn pretzel_full_topic_extraction() {
        run_topic_exchange(AheVariant::Pretzel, CandidateMode::Full);
    }

    #[test]
    fn baseline_full_topic_extraction() {
        run_topic_exchange(AheVariant::Baseline, CandidateMode::Full);
    }

    /// A batched extraction must hand the provider the same topic indices as
    /// sequential rounds, with the client's circuit pool only partially
    /// covering the batch.
    #[test]
    fn batched_extraction_matches_sequential_topics() {
        let corpus = topic_corpus();
        let model = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let provider_model = model.clone();
        let config = PretzelConfig::test();
        let config_client = config.clone();
        let emails = [
            SparseVector::from_pairs(vec![(8, 3), (9, 2), (10, 1)]),
            SparseVector::from_pairs(vec![(20, 2), (21, 2), (23, 1)]),
            SparseVector::from_pairs(vec![(0, 2), (1, 1), (2, 1)]),
        ];

        let (provider_res, client_res) = run_two_party(
            move |chan| -> Result<Vec<usize>> {
                let mut rng = rand::thread_rng();
                let mut provider = TopicProvider::setup(
                    chan,
                    &provider_model,
                    &config,
                    AheVariant::Pretzel,
                    CandidateMode::Full,
                    &mut rng,
                )?;
                provider.process_email_batch(chan, 3)
            },
            move |chan| -> Result<Vec<Vec<usize>>> {
                let mut rng = rand::thread_rng();
                let mut client = TopicClient::setup(
                    chan,
                    &config_client,
                    AheVariant::Pretzel,
                    CandidateMode::Full,
                    None,
                    &mut rng,
                )?;
                client.precompute(1, &mut rng);
                let refs: Vec<&SparseVector> = emails.iter().collect();
                let out = client.extract_batch(chan, &refs, &mut rng)?;
                assert_eq!(client.pool_depth(), 0, "bulk draw drained the pool");
                Ok(out)
            },
        );
        let topics = provider_res.unwrap();
        let candidate_sets = client_res.unwrap();
        assert_eq!(topics, vec![2, 5, 0]);
        for (topic, candidates) in topics.iter().zip(&candidate_sets) {
            assert!(candidates.contains(topic));
        }
    }

    #[test]
    fn index_width_covers_the_category_space() {
        assert_eq!(index_width_for(2), 1);
        assert_eq!(index_width_for(128), 7);
        assert_eq!(index_width_for(129), 8);
        assert_eq!(index_width_for(2048), 11);
        assert_eq!(index_width_for(2208), 12);
    }

    #[test]
    fn candidate_hit_rate_improves_with_more_candidates() {
        let corpus = topic_corpus();
        let full = MultinomialNbTrainer::default().train(&corpus, 24, 6);
        let weak = MultinomialNbTrainer::default().train(&corpus[..12], 24, 6);
        let r1 = candidate_hit_rate(&weak, &full, &corpus, 1);
        let r3 = candidate_hit_rate(&weak, &full, &corpus, 3);
        let r6 = candidate_hit_rate(&weak, &full, &corpus, 6);
        assert!(r1 <= r3 && r3 <= r6);
        assert!(
            (r6 - 1.0).abs() < 1e-9,
            "B'=B always contains the reference topic"
        );
    }

    /// The base-OT producer must box the artifact itself: `draw_base_ot`
    /// downcasts to `OtSenderPrecomp`, so any other box would make every
    /// banked base OT unusable and count its draw as a fallback.
    #[test]
    fn banked_base_ot_artifacts_are_drawable() {
        assert!(base_ot_fleet_plan(&PretzelConfig::test()).is_empty());
        let config = PretzelConfig::paper();
        let mut specs = base_ot_fleet_plan(&config);
        assert_eq!(specs.len(), 1);
        let spec = specs.pop().unwrap();
        let group = OtGroup::rfc3526_1536();
        assert_eq!(spec.id, ReservoirId::base_ots(group.fingerprint()));

        let artifact = (spec.producer)(&mut rand::thread_rng());
        let pre = artifact
            .downcast::<OtSenderPrecomp>()
            .expect("the producer boxes an OtSenderPrecomp");
        assert!(pre.matches(&group));

        // Through a bank: a stocked draw is served, not a fallback.
        let bank = bank::PrecomputeBank::start(bank::BankConfig::default().default_target(1));
        bank.register(spec.with_target(1));
        assert!(bank.wait_until_full(std::time::Duration::from_secs(60)));
        assert!(draw_base_ot(&bank.handle(), &config).is_some());
        let report = bank.shutdown();
        assert_eq!(report.drawn_total(), 1);
        assert_eq!(report.fallbacks_by_kind(bank::KIND_BASE_OTS), 0);
    }
}
