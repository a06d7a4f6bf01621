//! The deployment facade: everything the MANET authority does before the
//! network ships, behind one API.
//!
//! Section V-A's setup has three pieces that must stay consistent — the
//! secret spread-code pool, the m-round partition assignment, and the IBC
//! key issuance. [`Deployment`] owns all three, derived deterministically
//! from one master secret, and hands each node a self-contained
//! [`ProvisionedNode`]: its protocol state, its private key, and the
//! *actual chips* of its assigned codes, ready for the chip-level path.
//!
//! # Examples
//!
//! ```
//! use jrsnd::deployment::Deployment;
//! use jrsnd::params::Params;
//!
//! let mut params = Params::table1();
//! params.n = 60;
//! params.l = 6;
//! params.m = 12;
//! params.n_chips = 64; // keep the doc test light
//! let deployment = Deployment::new(params, b"master secret").unwrap();
//! let a = deployment.provision(0);
//! let b = deployment.provision(1);
//! // Both sides agree on which codes they share and on the pairwise key.
//! let shared = deployment.assignment().shared_codes(0, 1);
//! for c in &shared {
//!     assert_eq!(a.code_chips(*c), b.code_chips(*c));
//! }
//! assert_eq!(
//!     a.node().private_key().shared_key(b.node().id()),
//!     b.node().private_key().shared_key(a.node().id()),
//! );
//! ```

use crate::node::Node;
use crate::params::{Params, ParamsError};
use crate::predist::{derive_code_pool, CodeAssignment};
use jrsnd_crypto::ibc::{Authority, NodeId};
use jrsnd_dsss::code::{CodeId, CodePool, SpreadCode};
use jrsnd_sim::rng::SimRng;
use rand::SeedableRng;

/// The authority-side state created before the network is fielded.
#[derive(Debug)]
pub struct Deployment {
    params: Params,
    authority: Authority,
    pool: CodePool,
    assignment: CodeAssignment,
}

/// One node's complete provisioning package.
#[derive(Debug)]
pub struct ProvisionedNode {
    node: Node,
    codes: Vec<(CodeId, SpreadCode)>,
}

impl ProvisionedNode {
    /// The node's protocol state (code ids, keys, logical table,
    /// revocation counters).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Mutable access for running protocols.
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// The materialised spread codes, in the same order as
    /// `node().codes()`.
    pub fn codes(&self) -> &[(CodeId, SpreadCode)] {
        &self.codes
    }

    /// The chips of one assigned code.
    ///
    /// # Panics
    ///
    /// Panics if this node does not hold `id`.
    pub fn code_chips(&self, id: CodeId) -> &SpreadCode {
        self.codes
            .iter()
            .find(|(c, _)| *c == id)
            .map(|(_, code)| code)
            .unwrap_or_else(|| panic!("node {} does not hold {id}", self.node.id()))
    }

    /// Consumes the package into its parts.
    pub fn into_parts(self) -> (Node, Vec<(CodeId, SpreadCode)>) {
        (self.node, self.codes)
    }
}

impl Deployment {
    /// Runs the full pre-deployment setup from one master secret: derive
    /// the secret pool (`s = ⌈n/l⌉·m` codes of `N` chips), run the
    /// m-round partition assignment (seeded from the same secret), and
    /// stand up the IBC authority.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `params` fail validation.
    pub fn new(params: Params, master_secret: &[u8]) -> Result<Self, ParamsError> {
        params.validate()?;
        let authority = Authority::from_seed(master_secret);
        let pool = derive_code_pool(master_secret, params.pool_size(), params.n_chips);
        // The assignment's randomness is also keyed by the secret so the
        // authority can regenerate everything from the one value.
        let seed = jrsnd_crypto::prf::derive_key(master_secret, b"jr-snd/assignment-seed", b"");
        let mut rng = SimRng::seed_from_u64(u64::from_le_bytes(
            seed[..8].try_into().expect("derive_key returns 32 bytes"),
        ));
        let assignment = CodeAssignment::generate(&params, &mut rng);
        Ok(Deployment {
            params,
            authority,
            pool,
            assignment,
        })
    }

    /// The deployment's parameter set.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The IBC authority (for issuing verifiers, auditing, etc.).
    pub fn authority(&self) -> &Authority {
        &self.authority
    }

    /// The code assignment (who holds which code ids).
    pub fn assignment(&self) -> &CodeAssignment {
        &self.assignment
    }

    /// The secret pool (authority-side only; nodes get just their slice).
    pub fn pool(&self) -> &CodePool {
        &self.pool
    }

    /// Provisions node `index`: protocol state, ID-based private key,
    /// verifier, and the chips of its `m` assigned codes.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a real node of the assignment.
    pub fn provision(&self, index: usize) -> ProvisionedNode {
        assert!(
            index < self.assignment.n_real(),
            "node index {index} out of range {}",
            self.assignment.n_real()
        );
        let code_ids = self.assignment.codes_of(index).to_vec();
        let codes = code_ids
            .iter()
            .map(|&c| (c, self.pool.code(c).clone()))
            .collect();
        let key = self.authority.issue(NodeId(index as u32));
        let node = Node::new(index, code_ids, key, self.authority.verifier());
        ProvisionedNode { node, codes }
    }

    /// Admits a late joiner by consuming a virtual pre-distribution slot
    /// (Section V-A); returns its provisioning package, or `None` when no
    /// slot remains.
    pub fn admit(&mut self) -> Option<ProvisionedNode> {
        let index = self.assignment.admit_new_node()?;
        Some(self.provision(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Params {
        let mut p = Params::table1();
        p.n = 57; // 57 = 6*10 - 3: three virtual slots
        p.l = 6;
        p.m = 10;
        p.q = 2;
        p.n_chips = 64;
        p
    }

    #[test]
    fn provisioning_is_consistent_with_the_assignment() {
        let d = Deployment::new(small_params(), b"s1").unwrap();
        for idx in [0usize, 10, 56] {
            let pn = d.provision(idx);
            assert_eq!(pn.node().id(), NodeId(idx as u32));
            assert_eq!(pn.node().codes(), d.assignment().codes_of(idx));
            assert_eq!(pn.codes().len(), d.params().m);
            for (id, code) in pn.codes() {
                assert_eq!(code.chips(), d.pool().code(*id).chips());
            }
        }
    }

    #[test]
    fn shared_codes_have_identical_chips_on_both_sides() {
        let d = Deployment::new(small_params(), b"s2").unwrap();
        let a = d.provision(3);
        let b = d.provision(4);
        for c in d.assignment().shared_codes(3, 4) {
            assert_eq!(a.code_chips(c), b.code_chips(c));
        }
    }

    #[test]
    fn whole_deployment_regenerates_from_the_secret() {
        let d1 = Deployment::new(small_params(), b"same").unwrap();
        let d2 = Deployment::new(small_params(), b"same").unwrap();
        let a1 = d1.provision(7);
        let a2 = d2.provision(7);
        assert_eq!(a1.node().codes(), a2.node().codes());
        assert_eq!(a1.codes()[0].1, a2.codes()[0].1);
        // Different secrets produce disjoint worlds.
        let d3 = Deployment::new(small_params(), b"other").unwrap();
        assert_ne!(d1.provision(0).codes()[0].1, d3.provision(0).codes()[0].1);
    }

    #[test]
    fn chip_lengths_past_the_prf_cap_err_instead_of_panicking() {
        let mut p = Params::table1();
        (p.n, p.l, p.m, p.q) = (4, 2, 1, 0);
        p.n_chips = 65_280;
        let d = Deployment::new(p.clone(), b"cap").unwrap();
        assert_eq!(d.pool().code(CodeId(1)).len(), 65_280);
        p.n_chips = 65_281;
        assert_eq!(
            Deployment::new(p, b"cap").err(),
            Some(ParamsError::ChipLengthTooLarge)
        );
    }

    #[test]
    fn admit_consumes_virtual_slots_then_stops() {
        let mut d = Deployment::new(small_params(), b"s3").unwrap();
        let mut admitted = 0;
        while let Some(pn) = d.admit() {
            assert_eq!(pn.codes().len(), d.params().m);
            admitted += 1;
        }
        assert_eq!(admitted, 3, "57 = 6*10 - 3 leaves three virtual slots");
        assert!(d.admit().is_none());
    }

    #[test]
    fn provisioned_nodes_complete_a_chip_level_handshake() {
        let mut p = small_params();
        p.n_chips = 256;
        p.tau = 0.30;
        let d = Deployment::new(p, b"s4").unwrap();
        // Find a pair sharing at least one code.
        let mut pair = None;
        'outer: for u in 0..10 {
            for v in (u + 1)..20 {
                if !d.assignment().shared_codes(u, v).is_empty() {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("some pair shares a code at these densities");
        let shared = d.assignment().shared_codes(u, v)[0];
        let a = d.provision(u);
        let b = d.provision(v);
        let a_codes: Vec<_> = a.codes().iter().map(|(_, c)| c.clone()).collect();
        let b_codes: Vec<_> = b.codes().iter().map(|(_, c)| c.clone()).collect();
        let shared_a = a.node().codes().iter().position(|&c| c == shared).unwrap();
        let shared_b = b.node().codes().iter().position(|&c| c == shared).unwrap();
        let report = crate::chiplink::run_handshake(
            d.params(),
            d.authority(),
            &a_codes,
            &b_codes,
            shared_a,
            shared_b,
            None,
            11,
        );
        assert!(report.discovered, "stage {:?}", report.stage);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn provisioning_unknown_node_panics() {
        let d = Deployment::new(small_params(), b"s5").unwrap();
        d.provision(999);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = small_params();
        p.l = 1;
        assert!(Deployment::new(p, b"s6").is_err());
    }
}
