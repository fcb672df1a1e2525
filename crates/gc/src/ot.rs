//! Base oblivious transfer (1-out-of-2) over a prime-order subgroup.
//!
//! This is the Chou–Orlandi "simplest OT" construction over a multiplicative
//! group modulo a safe prime:
//!
//! * Sender: secret `a`, publishes `A = g^a`.
//! * Receiver with choice bit `c`: secret `b`, publishes `B = g^b` (c = 0) or
//!   `B = A·g^b` (c = 1); derives `k_c = H(A^b)`.
//! * Sender derives `k_0 = H(B^a)` and `k_1 = H((B/A)^a)` and sends both
//!   messages encrypted under the respective keys; the receiver can decrypt
//!   only the chosen one.
//!
//! Base OTs run only during the setup phase of the Yao session (the IKNP
//! extension in [`crate::otext`] turns 128 of them into any number of fast
//! per-email OTs), which is exactly how the paper amortizes the expensive
//! public-key machinery into setup (§3.3).
//!
//! Two of the three bases are fixed: `g` for the group's lifetime, and the
//! sender's `A` for the whole batch. Their exponentiations run through
//! [`FixedBase`] tables (the group's generator table is shared, the `A`
//! table is built once per [`base_ot_receive`]); only the sender's `B^a`,
//! whose base changes with every OT, stays a windowed `pow`. The tables
//! change how values are computed, never which values: draws, messages and
//! transcripts are those of plain `pow`.

use std::sync::{Arc, OnceLock};

use rand::Rng;

use pretzel_bignum::{gen_safe_prime, mod_mul, AutoMontgomery, BigUint, FixedBase};
use pretzel_primitives::{sha256, xor_in_place};
use pretzel_transport::Channel;

use crate::GcError;

/// Fixed-size payload carried by one base OT (a PRG seed).
pub const OT_MSG_LEN: usize = 32;

/// The group used for base OT.
#[derive(Clone, Debug)]
pub struct OtGroup {
    /// Safe prime modulus.
    p: BigUint,
    /// Subgroup order q = (p - 1) / 2.
    q: BigUint,
    mont: AutoMontgomery,
    /// Fixed-base table for the generator `g = 4` of the order-q subgroup,
    /// shared by every clone of the group.
    g_table: Arc<FixedBase>,
    /// See [`OtGroup::fingerprint`]; hashed once at construction.
    fingerprint: u64,
}

impl OtGroup {
    /// The 1536-bit MODP group from RFC 3526 (§2); `g = 4` generates the
    /// prime-order subgroup of a safe prime.
    ///
    /// The group is built once per process; each call returns a clone that
    /// shares its generator table.
    pub fn rfc3526_1536() -> Self {
        static GROUP: OnceLock<OtGroup> = OnceLock::new();
        GROUP.get_or_init(Self::parse_rfc3526_1536).clone()
    }

    fn parse_rfc3526_1536() -> Self {
        let p_hex = concat!(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1",
            "29024E088A67CC74020BBEA63B139B22514A08798E3404DD",
            "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245",
            "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
            "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D",
            "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F",
            "83655D23DCA3AD961C62F356208552BB9ED529077096966D",
            "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
        );
        let p = BigUint::from_hex(p_hex).expect("valid hex constant");
        Self::from_safe_prime(p)
    }

    /// Builds a group from a safe prime `p` with generator `g = 4`.
    pub fn from_safe_prime(p: BigUint) -> Self {
        let q = (p.clone() - BigUint::one()) >> 1;
        let mont = AutoMontgomery::new(&p);
        let g_table = Arc::new(FixedBase::new(&mont, &BigUint::from(4u64)));
        let mut group = OtGroup {
            p,
            q,
            mont,
            g_table,
            fingerprint: 0,
        };
        group.fingerprint = fnv1a(&group.encode(&group.p));
        group
    }

    /// Generates a small group for unit tests (NOT secure — documented as
    /// such; production paths use [`OtGroup::rfc3526_1536`]).
    pub fn insecure_test_group<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        Self::from_safe_prime(gen_safe_prime(bits, rng))
    }

    /// Deterministically derives a small test group from a 32-byte seed.
    ///
    /// Both protocol parties call this with the seed produced by the joint
    /// commit–reveal exchange, so they agree on the same group without either
    /// party choosing it unilaterally. Like [`OtGroup::insecure_test_group`],
    /// the result is NOT cryptographically secure at small bit widths;
    /// production configurations use [`OtGroup::rfc3526_1536`].
    pub fn derive_test_group(bits: usize, seed: &[u8; 32]) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::from_seed(*seed);
        Self::from_safe_prime(gen_safe_prime(bits, &mut rng))
    }

    /// The group's prime modulus (a public parameter).
    pub fn prime(&self) -> &BigUint {
        &self.p
    }

    /// Stable 64-bit fingerprint of the group (FNV-1a over the encoded
    /// modulus) — the key a fleet-wide precompute bank files base-OT sender
    /// artifacts under, so artifacts generated for one group can never be
    /// spent in another.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn pow_g(&self, exp: &BigUint) -> BigUint {
        self.g_table.pow(exp)
    }

    /// A fixed-base table for raising `base` to many exponents in this group.
    fn fixed_base(&self, base: &BigUint) -> FixedBase {
        FixedBase::new(&self.mont, base)
    }

    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mont.pow(base, exp)
    }

    fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.mont.mul(a, b)
    }

    fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let e = BigUint::random_below(rng, &self.q);
            if !e.is_zero() {
                return e;
            }
        }
    }

    fn element_bytes(&self) -> usize {
        self.p.bits().div_ceil(8)
    }

    fn encode(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.element_bytes())
    }

    fn decode(&self, bytes: &[u8]) -> Result<BigUint, GcError> {
        let v = BigUint::from_bytes_be(bytes);
        if v.is_zero() || v >= self.p {
            return Err(GcError::Protocol("group element out of range".into()));
        }
        Ok(v)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn key_from_element(group: &OtGroup, shared: &BigUint, index: u64) -> [u8; 32] {
    let mut data = Vec::with_capacity(group.element_bytes() + 8);
    data.extend_from_slice(&group.encode(shared));
    data.extend_from_slice(&index.to_le_bytes());
    sha256(&data)
}

/// Peer-independent sender-side precomputation for one base-OT execution:
/// the secret exponent `a`, the public value `A = g^a`, and the cached
/// `A^{-a}` used to derive `k_1`. All three are independent of the
/// receiver's messages, so they can be manufactured ahead of time by a
/// background producer (a fleet-wide precompute bank) and spent at session
/// setup — removing both generator exponentiations from the serving path.
///
/// Consume-once: each value must feed exactly one [`base_ot_send_precomputed`]
/// execution (the API takes it by value).
pub struct OtSenderPrecomp {
    a: BigUint,
    big_a: BigUint,
    a_inv_pow_a: BigUint,
    group_fingerprint: u64,
}

impl OtSenderPrecomp {
    /// Runs the offline part of [`base_ot_send`] for `group`.
    pub fn generate<R: Rng + ?Sized>(group: &OtGroup, rng: &mut R) -> Self {
        let a = group.random_exponent(rng);
        let big_a = group.pow_g(&a);
        // A^{-a} is used to compute (B / A)^a as B^a * A^{-a}. Since g has
        // order q, A^{-a} = g^{-a²} = g^{q - (a² mod q)}: one more
        // generator-table evaluation, no inverse and no variable-base pow.
        let neg_a_sq = group.q.clone() - mod_mul(&a, &a, &group.q);
        let a_inv_pow_a = group.pow_g(&neg_a_sq);
        OtSenderPrecomp {
            a,
            big_a,
            a_inv_pow_a,
            group_fingerprint: group.fingerprint(),
        }
    }

    /// True when this artifact was generated for exactly `group` — spending
    /// it in a different group would break correctness and security, so
    /// [`base_ot_send_precomputed`] rejects mismatches.
    pub fn matches(&self, group: &OtGroup) -> bool {
        self.group_fingerprint == group.fingerprint()
    }
}

/// Sender side of `n` base OTs. `messages[i]` is the pair `(m0, m1)`; the
/// receiver learns exactly one of each pair.
pub fn base_ot_send<C: Channel>(
    channel: &mut C,
    group: &OtGroup,
    messages: &[([u8; OT_MSG_LEN], [u8; OT_MSG_LEN])],
    rng: &mut (impl Rng + ?Sized),
) -> Result<(), GcError> {
    let pre = OtSenderPrecomp::generate(group, rng);
    base_ot_send_precomputed(channel, group, pre, messages)
}

/// [`base_ot_send`] consuming an offline [`OtSenderPrecomp`] — the online
/// half needs no RNG and performs no fixed-base exponentiation.
pub fn base_ot_send_precomputed<C: Channel>(
    channel: &mut C,
    group: &OtGroup,
    pre: OtSenderPrecomp,
    messages: &[([u8; OT_MSG_LEN], [u8; OT_MSG_LEN])],
) -> Result<(), GcError> {
    if !pre.matches(group) {
        return Err(GcError::Protocol(
            "base-OT precomputation generated for a different group".into(),
        ));
    }
    let OtSenderPrecomp {
        a,
        big_a,
        a_inv_pow_a,
        ..
    } = pre;
    channel.send(&group.encode(&big_a))?;

    let mut response = Vec::with_capacity(messages.len() * 2 * OT_MSG_LEN);
    for (i, (m0, m1)) in messages.iter().enumerate() {
        let b_bytes = channel.recv()?;
        let big_b = group.decode(&b_bytes)?;
        let b_pow_a = group.pow(&big_b, &a);
        let k0 = key_from_element(group, &b_pow_a, i as u64);
        let k1 = key_from_element(group, &group.mul(&b_pow_a, &a_inv_pow_a), i as u64);

        let mut e0 = *m0;
        xor_in_place(&mut e0, &k0);
        let mut e1 = *m1;
        xor_in_place(&mut e1, &k1);
        response.extend_from_slice(&e0);
        response.extend_from_slice(&e1);
    }
    channel.send(&response)?;
    Ok(())
}

/// Receiver side of `n` base OTs; returns the chosen message of each pair.
pub fn base_ot_receive<C: Channel>(
    channel: &mut C,
    group: &OtGroup,
    choices: &[bool],
    rng: &mut (impl Rng + ?Sized),
) -> Result<Vec<[u8; OT_MSG_LEN]>, GcError> {
    let a_bytes = channel.recv()?;
    let big_a = group.decode(&a_bytes)?;
    let a_table = group.fixed_base(&big_a);

    let mut keys = Vec::with_capacity(choices.len());
    for (i, &c) in choices.iter().enumerate() {
        let b = group.random_exponent(rng);
        let g_b = group.pow_g(&b);
        let big_b = if c { group.mul(&big_a, &g_b) } else { g_b };
        channel.send(&group.encode(&big_b))?;
        let shared = a_table.pow(&b);
        keys.push(key_from_element(group, &shared, i as u64));
    }

    let response = channel.recv()?;
    if response.len() != choices.len() * 2 * OT_MSG_LEN {
        return Err(GcError::Protocol("bad base-OT response length".into()));
    }
    let mut out = Vec::with_capacity(choices.len());
    for (i, &c) in choices.iter().enumerate() {
        let offset = i * 2 * OT_MSG_LEN + if c { OT_MSG_LEN } else { 0 };
        let mut m = [0u8; OT_MSG_LEN];
        m.copy_from_slice(&response[offset..offset + OT_MSG_LEN]);
        xor_in_place(&mut m, &keys[i]);
        out.push(m);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_transport::run_two_party;
    use rand::Rng;

    fn test_group() -> OtGroup {
        OtGroup::insecure_test_group(64, &mut rand::thread_rng())
    }

    #[test]
    fn receiver_gets_exactly_the_chosen_messages() {
        let group = test_group();
        let group_b = group.clone();
        let mut rng = rand::thread_rng();
        let n = 8;
        let messages: Vec<([u8; 32], [u8; 32])> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let choices: Vec<bool> = (0..n).map(|_| rng.gen()).collect();

        let msgs_for_sender = messages.clone();
        let choices_for_recv = choices.clone();
        let (send_res, recv_res) = run_two_party(
            move |chan| base_ot_send(chan, &group, &msgs_for_sender, &mut rand::thread_rng()),
            move |chan| base_ot_receive(chan, &group_b, &choices_for_recv, &mut rand::thread_rng()),
        );
        send_res.unwrap();
        let received = recv_res.unwrap();
        for i in 0..n {
            let expected = if choices[i] {
                messages[i].1
            } else {
                messages[i].0
            };
            assert_eq!(received[i], expected, "OT #{i}");
            let other = if choices[i] {
                messages[i].0
            } else {
                messages[i].1
            };
            assert_ne!(
                received[i], other,
                "OT #{i} must not reveal the other message"
            );
        }
    }

    #[test]
    fn precomputed_sender_serves_the_same_protocol() {
        let group = test_group();
        let group_b = group.clone();
        let mut rng = rand::thread_rng();
        let n = 4;
        let messages: Vec<([u8; 32], [u8; 32])> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
        let choices: Vec<bool> = (0..n).map(|_| rng.gen()).collect();

        // Offline half on a "producer thread" RNG, online half with no RNG.
        let pre = OtSenderPrecomp::generate(&group, &mut rng);
        assert!(pre.matches(&group));
        let msgs_for_sender = messages.clone();
        let choices_for_recv = choices.clone();
        let (send_res, recv_res) = run_two_party(
            move |chan| base_ot_send_precomputed(chan, &group, pre, &msgs_for_sender),
            move |chan| base_ot_receive(chan, &group_b, &choices_for_recv, &mut rand::thread_rng()),
        );
        send_res.unwrap();
        let received = recv_res.unwrap();
        for i in 0..n {
            let expected = if choices[i] {
                messages[i].1
            } else {
                messages[i].0
            };
            assert_eq!(received[i], expected, "OT #{i}");
        }
    }

    #[test]
    fn precomputation_for_a_foreign_group_is_rejected() {
        let group = test_group();
        let other = test_group();
        assert_ne!(group.fingerprint(), other.fingerprint());
        let pre = OtSenderPrecomp::generate(&other, &mut rand::thread_rng());
        assert!(!pre.matches(&group));
        let mut chan = pretzel_transport::memory_pair().0;
        let err = base_ot_send_precomputed(&mut chan, &group, pre, &[]);
        assert!(matches!(err, Err(GcError::Protocol(_))));
    }

    #[test]
    fn group_element_encoding_roundtrip() {
        let group = test_group();
        let x = BigUint::from(123456789u64) % group.p.clone();
        let bytes = group.encode(&x);
        assert_eq!(bytes.len(), group.element_bytes());
        assert_eq!(group.decode(&bytes).unwrap(), x);
        // Out-of-range elements rejected.
        assert!(group.decode(&group.encode(&group.p.clone())).is_err() || x == group.p);
        let zero = vec![0u8; group.element_bytes()];
        assert!(group.decode(&zero).is_err());
    }

    #[test]
    fn rfc3526_group_parses() {
        let group = OtGroup::rfc3526_1536();
        assert_eq!(group.p.bits(), 1536);
        assert_eq!(group.element_bytes(), 192);
    }

    /// Records every frame a party sends, so a test can hash the transcript.
    struct Recording<'a, C> {
        inner: &'a mut C,
        sent: Vec<Vec<u8>>,
    }

    impl<C: Channel> Channel for Recording<'_, C> {
        fn send(&mut self, msg: &[u8]) -> pretzel_transport::Result<()> {
            self.sent.push(msg.to_vec());
            self.inner.send(msg)
        }
        fn recv(&mut self) -> pretzel_transport::Result<Vec<u8>> {
            self.inner.recv()
        }
    }

    /// Pins the wire bytes of 8 seeded base OTs in the RFC 3526 group: every
    /// frame both parties send, in order, plus the receiver's outputs. The
    /// digest was computed with the plain windowed `pow` on both sides, so
    /// any change to the exponentiation path must leave it unmoved.
    #[test]
    fn seeded_rfc3526_transcript_is_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut setup = StdRng::seed_from_u64(0x07);
        let messages: Vec<([u8; 32], [u8; 32])> =
            (0..8).map(|_| (setup.gen(), setup.gen())).collect();
        let choices: Vec<bool> = (0..8).map(|_| setup.gen()).collect();
        let group = OtGroup::rfc3526_1536();
        let group_b = group.clone();

        let (sent_by_sender, (sent_by_receiver, received)) = run_two_party(
            move |chan| {
                let mut rec = Recording {
                    inner: chan,
                    sent: Vec::new(),
                };
                let mut rng = StdRng::seed_from_u64(0x5e);
                base_ot_send(&mut rec, &group, &messages, &mut rng).unwrap();
                rec.sent
            },
            move |chan| {
                let mut rec = Recording {
                    inner: chan,
                    sent: Vec::new(),
                };
                let mut rng = StdRng::seed_from_u64(0x2e);
                let out = base_ot_receive(&mut rec, &group_b, &choices, &mut rng).unwrap();
                (rec.sent, out)
            },
        );
        let mut transcript = Vec::new();
        for frame in sent_by_sender.iter().chain(&sent_by_receiver) {
            transcript.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            transcript.extend_from_slice(frame);
        }
        for m in &received {
            transcript.extend_from_slice(m);
        }
        let digest: String = sha256(&transcript)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "4c967359d4b14389b42222ac2da677dcd70c3ab9b5e966d2e27c9889a4a123ad"
        );
    }
}
