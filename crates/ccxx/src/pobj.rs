//! Processor objects: the CC++ abstraction for MPMD address spaces.
//!
//! "CC++ uses processor objects to abstract the different address spaces in
//! an MPMD application... A regular C++ class can be elevated to a processor
//! object through language extensions, making all its public methods and
//! data accessible by other processor objects using global pointers."
//!
//! The raw [`crate::rmi`] layer dispatches on method names; this module adds
//! the object layer: typed per-node object instances, global object
//! pointers, and per-type method registration. Methods of a type are
//! registered once per node (as the front-end's generated stubs would be);
//! an invocation carries the object id, and the owner resolves
//! `(object, method)` to the typed stub — callers never need the concrete
//! type, keeping CC++ global pointers opaque.

use crate::marshal::MarshalBuf;
use crate::rmi::{
    register_method_full, rmi_with_object, CallMode, RmiArgs, RmiRet, DEFAULT_PROGRAM,
};
use crate::state::CcxxState;
use mpmd_fabric::Fabric;
use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A global pointer to a processor object: opaque to the program, as in
/// CC++ ("unlike Split-C, global pointers in CC++ are opaque").
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct CxObjPtr {
    pub node: usize,
    pub obj: u64,
}

/// A processor object: the name of its type, whose methods it answers, and
/// its value.
pub(crate) type ObjRec = (&'static str, Arc<dyn Any + Send + Sync>);

/// Instantiate a processor object on this node, returning its global
/// pointer. (CC++ creates processor objects with placement `new` on a
/// processor; here the creating code already runs on the target node.)
pub fn create_object<T: Send + Sync + 'static, F: Fabric>(ctx: &F, obj: T) -> CxObjPtr {
    let st = CcxxState::get(ctx);
    let id = st.next_obj.fetch_add(1, Ordering::AcqRel);
    let rec: ObjRec = (std::any::type_name::<T>(), Arc::new(obj));
    st.objects.with(ctx, |objects| objects.insert(id, rec));
    CxObjPtr {
        node: ctx.node(),
        obj: id,
    }
}

/// Remove a processor object (global pointers to it dangle afterwards;
/// invocations then panic with a clear message).
pub fn destroy_object<F: Fabric>(ctx: &F, p: CxObjPtr) {
    assert_eq!(p.node, ctx.node(), "objects are destroyed by their owner");
    let objects = &CcxxState::get(ctx).objects;
    let prev = objects.with(ctx, |objects| objects.remove(&p.obj));
    assert!(prev.is_some(), "destroying nonexistent object {}", p.obj);
}

/// The wire method name of a typed method, namespaced so distinct processor
/// object types may reuse method names.
fn typed_name_of(type_name: &str, method: &str) -> String {
    format!("{type_name}::{method}")
}

/// Processor object `obj` of this node.
fn object<F: Fabric>(ctx: &F, obj: u64) -> ObjRec {
    let objects = &CcxxState::get(ctx).objects;
    let found = objects.with(ctx, |objects| objects.get(&obj).cloned());
    found.unwrap_or_else(|| panic!("no processor object {obj} on node {}", ctx.node()))
}

/// Owner-side resolution: map an `(object id, bare method name)` invocation
/// to the registered typed stub name.
pub(crate) fn object_method_wire_name<F: Fabric>(ctx: &F, obj: u64, method: &str) -> String {
    typed_name_of(object(ctx, obj).0, method)
}

/// Fetch an object for a typed stub (panics on type confusion — a CC++
/// program with a miscast global pointer would crash too, just less
/// politely).
fn fetch_object<T: Send + Sync + 'static, F: Fabric>(ctx: &F, obj: u64) -> Arc<T> {
    Arc::downcast::<T>(object(ctx, obj).1).unwrap_or_else(|_| {
        panic!(
            "processor object {obj} is not a {}",
            std::any::type_name::<T>()
        )
    })
}

/// Register a method of processor-object type `T` on this node. All
/// instances of `T` on this node share the stub (exactly like compiled C++
/// member functions). `may_block = false` enables the OAM fast path.
pub fn register_obj_method<T, F, Fab>(ctx: &Fab, method: &str, may_block: bool, f: F)
where
    T: Send + Sync + 'static,
    Fab: Fabric,
    F: Fn(&Fab, &T, RmiArgs) -> RmiRet + Send + Sync + 'static,
{
    let name = typed_name_of(std::any::type_name::<T>(), method);
    register_method_full(
        ctx,
        DEFAULT_PROGRAM,
        &name,
        may_block,
        move |ctx, mut args| {
            let obj_id = args
                .obj
                .take()
                .expect("object method invoked without an object id");
            let obj = fetch_object::<T, _>(ctx, obj_id);
            f(ctx, &obj, args)
        },
    );
}

/// Invoke `method` on the processor object behind `p`
/// (`gpObj->method(...)`).
pub fn rmi_obj<F: Fabric>(
    ctx: &F,
    p: CxObjPtr,
    method: &str,
    words: &[u64],
    payload: Option<MarshalBuf>,
    mode: CallMode,
) -> RmiRet {
    rmi_with_object(ctx, p.node, method, p.obj, words, payload, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{barrier, finalize, init, CcxxConfig};
    use mpmd_sim::Sim;
    use std::sync::atomic::AtomicU64;

    struct Counter {
        hits: AtomicU64,
    }

    struct Scaler {
        factor: u64,
    }

    #[test]
    fn object_lifecycle() {
        Sim::new(1).run(|ctx| {
            init(&ctx, CcxxConfig::tham());
            let p = create_object(
                &ctx,
                Counter {
                    hits: AtomicU64::new(0),
                },
            );
            assert_eq!(p.node, 0);
            destroy_object(&ctx, p);
            finalize(&ctx);
        });
    }

    #[test]
    #[should_panic(expected = "destroying nonexistent object")]
    fn double_destroy_panics() {
        Sim::new(1).run(|ctx| {
            init(&ctx, CcxxConfig::tham());
            let p = create_object(&ctx, 42u64);
            destroy_object(&ctx, p);
            destroy_object(&ctx, p);
        });
    }

    #[test]
    fn typed_names_differ_per_type() {
        assert_ne!(typed_name_of("A", "m"), typed_name_of("B", "m"));
        assert_eq!(typed_name_of("A", "m"), typed_name_of("A", "m"));
    }

    #[test]
    fn object_methods_dispatch_to_the_right_instance_and_type() {
        Sim::new(2).run(|ctx| {
            init(&ctx, CcxxConfig::tham());
            register_obj_method::<Counter, _, _>(&ctx, "apply", false, |_ctx, obj, args| {
                let n = obj.hits.fetch_add(args.words[0], Ordering::AcqRel) + args.words[0];
                RmiRet::of_words([n, 0, 0, 0])
            });
            // Same bare method name, different type: must not collide.
            register_obj_method::<Scaler, _, _>(&ctx, "apply", false, |_ctx, obj, args| {
                RmiRet::of_words([obj.factor * args.words[0], 0, 0, 0])
            });
            // Node 1 hosts two counters and a scaler.
            let reg = crate::alloc_region(&ctx, 3, 0.0);
            if ctx.node() == 1 {
                let a = create_object(
                    &ctx,
                    Counter {
                        hits: AtomicU64::new(0),
                    },
                );
                let b = create_object(
                    &ctx,
                    Counter {
                        hits: AtomicU64::new(100),
                    },
                );
                let s = create_object(&ctx, Scaler { factor: 7 });
                crate::with_local(&ctx, reg, |v| {
                    v[0] = a.obj as f64;
                    v[1] = b.obj as f64;
                    v[2] = s.obj as f64;
                });
            }
            barrier(&ctx);
            if ctx.node() == 0 {
                let id = |i: usize| {
                    crate::gp_read(
                        &ctx,
                        crate::CxPtr {
                            node: 1,
                            region: reg,
                            offset: i,
                        },
                    ) as u64
                };
                let a = CxObjPtr {
                    node: 1,
                    obj: id(0),
                };
                let b = CxObjPtr {
                    node: 1,
                    obj: id(1),
                };
                let s = CxObjPtr {
                    node: 1,
                    obj: id(2),
                };
                assert_eq!(
                    rmi_obj(&ctx, a, "apply", &[5], None, CallMode::Blocking).words[0],
                    5
                );
                assert_eq!(
                    rmi_obj(&ctx, a, "apply", &[5], None, CallMode::Blocking).words[0],
                    10
                );
                assert_eq!(
                    rmi_obj(&ctx, b, "apply", &[1], None, CallMode::Optimistic).words[0],
                    101
                );
                assert_eq!(
                    rmi_obj(&ctx, s, "apply", &[6], None, CallMode::Threaded).words[0],
                    42
                );
            }
            finalize(&ctx);
        });
    }

    #[test]
    fn warm_object_calls_hit_the_stub_cache() {
        Sim::new(2).run(|ctx| {
            init(&ctx, CcxxConfig::tham());
            register_obj_method::<Counter, _, _>(&ctx, "get", false, |_ctx, obj, _args| {
                RmiRet::of_words([obj.hits.load(Ordering::Acquire), 0, 0, 0])
            });
            let reg = crate::alloc_region(&ctx, 1, 0.0);
            if ctx.node() == 1 {
                let p = create_object(
                    &ctx,
                    Counter {
                        hits: AtomicU64::new(9),
                    },
                );
                crate::with_local(&ctx, reg, |v| v[0] = p.obj as f64);
            }
            barrier(&ctx);
            if ctx.node() == 0 {
                let p = CxObjPtr {
                    node: 1,
                    obj: crate::gp_read(
                        &ctx,
                        crate::CxPtr {
                            node: 1,
                            region: reg,
                            offset: 0,
                        },
                    ) as u64,
                };
                let t0 = ctx.now();
                rmi_obj(&ctx, p, "get", &[], None, CallMode::Blocking);
                let cold = ctx.now() - t0;
                let t1 = ctx.now();
                let r = rmi_obj(&ctx, p, "get", &[], None, CallMode::Blocking);
                let warm = ctx.now() - t1;
                assert_eq!(r.words[0], 9);
                assert!(warm < cold, "warm {warm} !< cold {cold}");
            }
            finalize(&ctx);
        });
    }
}
