//! Multi-tenant namespaces: a tenant → [`Registry`] map with one
//! cross-tenant [`SharedCompCache`].
//!
//! Each tenant gets a fully independent registry — its own transaction
//! ids, object names, allocation, degradation state, and template
//! catalog (templates registered by one tenant are invisible to every
//! other: ids, audited levels, and instance counts are all
//! tenant-scoped) — behind its own lock, so mutations in different
//! tenants run in parallel. What
//! the tenants *share* is the component fingerprint cache: fleets run
//! many tenants through the same template shapes (the template line of
//! work, Vandevoort et al.), so a conflict component one tenant has
//! solved is a pure cache hit for every other tenant admitting the
//! same shape. Content addressing makes this sound: the fingerprint
//! keys on the component's conflict structure, and Proposition 4.2's
//! uniqueness of the optimum means a hit is bit-identical to
//! re-solving.
//!
//! Tenant names are part of the wire protocol (an envelope field next
//! to the request verb) and of durable state (WAL records and
//! snapshots key on them), so they are restricted to a conservative
//! charset — see [`valid_tenant`]. The absent field means
//! [`DEFAULT_TENANT`], keeping every pre-tenant client bit-compatible.

use crate::fault::FaultHook;
use crate::registry::Registry;
use mvrobustness::{LevelSet, SharedCompCache};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The tenant a request without a `tenant` field routes to.
pub const DEFAULT_TENANT: &str = "default";

/// Is `name` a legal tenant name? 1–64 characters from
/// `[A-Za-z0-9_-]` — safe in the wire protocol, in log records, and in
/// diagnostics.
pub fn valid_tenant(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// How to build each tenant's registry: the server-wide configuration
/// every namespace shares.
#[derive(Clone)]
pub struct RegistryTemplate {
    pub levels: LevelSet,
    pub threads: usize,
    pub realloc_timeout: Option<Duration>,
    /// Chaos seam, cloned into every tenant.
    pub faults: Option<Arc<dyn FaultHook>>,
}

impl RegistryTemplate {
    fn build(&self, cache: &Arc<SharedCompCache>) -> Registry {
        let mut reg = Registry::new(self.levels, self.threads)
            .with_realloc_timeout(self.realloc_timeout)
            .with_shared_cache(Arc::clone(cache));
        if let Some(hook) = &self.faults {
            reg = reg.with_fault_hook(Arc::clone(hook));
        }
        reg
    }
}

/// The tenant map. Tenants are created on first touch (registering
/// into a fresh tenant is how one comes to exist — there is no
/// separate create verb) and never dropped while the server runs.
pub struct Namespaces {
    tenants: Mutex<BTreeMap<Arc<str>, Arc<Mutex<Registry>>>>,
    cache: Arc<SharedCompCache>,
    template: RegistryTemplate,
}

impl Namespaces {
    pub fn new(template: RegistryTemplate) -> Self {
        Namespaces {
            tenants: Mutex::new(BTreeMap::new()),
            cache: Arc::new(SharedCompCache::default()),
            template,
        }
    }

    /// The cross-tenant fingerprint cache (for stats and snapshots).
    pub fn shared_cache(&self) -> &Arc<SharedCompCache> {
        &self.cache
    }

    pub fn levels(&self) -> LevelSet {
        self.template.levels
    }

    /// Resolves `name` to its registry, creating the tenant on first
    /// touch. Returns the interned name so callers key caches and log
    /// records off one shared allocation. The map lock is held only for
    /// the lookup — never while a registry lock is taken.
    pub fn resolve(&self, name: &str) -> (Arc<str>, Arc<Mutex<Registry>>) {
        let mut map = self.tenants.lock().expect("namespaces poisoned");
        if let Some((key, reg)) = map.get_key_value(name) {
            return (Arc::clone(key), Arc::clone(reg));
        }
        let key: Arc<str> = Arc::from(name);
        let reg = Arc::new(Mutex::new(self.template.build(&self.cache)));
        map.insert(Arc::clone(&key), Arc::clone(&reg));
        (key, reg)
    }

    /// Resolves `name` only if the tenant already exists — read-only
    /// verbs against an unknown tenant must not create it.
    pub fn get(&self, name: &str) -> Option<(Arc<str>, Arc<Mutex<Registry>>)> {
        let map = self.tenants.lock().expect("namespaces poisoned");
        map.get_key_value(name)
            .map(|(k, r)| (Arc::clone(k), Arc::clone(r)))
    }

    /// Every tenant with its registry, ascending by name — the
    /// snapshot capture order (registry locks are then taken in this
    /// order, which keeps lock acquisition globally consistent).
    pub fn all(&self) -> Vec<(Arc<str>, Arc<Mutex<Registry>>)> {
        let map = self.tenants.lock().expect("namespaces poisoned");
        map.iter()
            .map(|(k, r)| (Arc::clone(k), Arc::clone(r)))
            .collect()
    }

    /// Installs a fault hook after construction: on every existing
    /// tenant and on all tenants created from here on. Recovery
    /// replays run fault-free (they re-apply mutations that already
    /// succeeded once), then the server arms the chaos seam with this
    /// before accepting connections.
    pub fn install_faults(&mut self, hook: Arc<dyn FaultHook>) {
        self.template.faults = Some(Arc::clone(&hook));
        for (_, reg) in self.all() {
            reg.lock()
                .expect("registry poisoned")
                .set_fault_hook(Arc::clone(&hook));
        }
    }

    /// Number of tenants that exist.
    pub fn len(&self) -> usize {
        self.tenants.lock().expect("namespaces poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmodel::TxnId;

    fn template() -> RegistryTemplate {
        RegistryTemplate {
            levels: LevelSet::RcSiSsi,
            threads: 1,
            realloc_timeout: None,
            faults: None,
        }
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant("default"));
        assert!(valid_tenant("acme-corp_7"));
        assert!(valid_tenant(&"x".repeat(64)));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant(&"x".repeat(65)));
        assert!(!valid_tenant("a b"));
        assert!(!valid_tenant("a/b"));
        assert!(!valid_tenant("naïve"));
    }

    #[test]
    fn tenants_are_isolated_but_share_the_fingerprint_cache() {
        let ns = Namespaces::new(template());
        assert!(ns.is_empty());
        let (a_name, a) = ns.resolve("acme");
        let (b_name, b) = ns.resolve("bolt");
        assert_eq!(ns.len(), 2);
        assert_eq!(&*a_name, "acme");

        // The same two-component shape in both tenants: a write-skew
        // pair plus a lost-update pair (the sharded engine only engages
        // with ≥ 2 components). Ids do not clash across tenants
        // (isolation), and the second tenant's components are answered
        // from the shared cache (cross-tenant hits).
        let lines = [
            "T1: R[x] W[y]",
            "T2: R[y] W[x]",
            "T3: R[z] W[z]",
            "T4: R[z] W[z]",
        ];
        {
            let mut reg = a.lock().unwrap();
            for line in lines {
                reg.register(line).unwrap();
            }
        }
        {
            let mut reg = b.lock().unwrap();
            for line in lines {
                reg.register(line).unwrap();
            }
            assert_eq!(
                reg.assign(TxnId(1)).unwrap(),
                mvisolation::IsolationLevel::SSI
            );
        }
        assert!(
            ns.shared_cache().hits() > 0,
            "tenant b's components must hit tenant a's cached solutions"
        );
        // And tenant a is untouched by tenant b's registrations.
        assert_eq!(a.lock().unwrap().len(), 4);
        let _ = b_name;
    }

    #[test]
    fn resolve_interns_and_get_does_not_create() {
        let ns = Namespaces::new(template());
        assert!(ns.get("ghost").is_none());
        assert_eq!(ns.len(), 0, "get never creates");
        let (k1, r1) = ns.resolve("acme");
        let (k2, r2) = ns.resolve("acme");
        assert!(Arc::ptr_eq(&k1, &k2), "names are interned");
        assert!(Arc::ptr_eq(&r1, &r2), "one registry per tenant");
        let names: Vec<String> = ns.all().iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["acme"]);
        ns.resolve("zeta");
        ns.resolve("beta");
        let names: Vec<String> = ns.all().iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["acme", "beta", "zeta"], "sorted for snapshots");
    }
}
