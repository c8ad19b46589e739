//! Typed functions: the paper's Listing 1 as a veneer over
//! [`FabricRuntime`] (worked example in the crate docs).
//!
//! A task's input is its dependencies' outputs followed by its payload.
//! [`Wire`] makes that concatenation an argument list by one rule: **every
//! value is self-delimiting** — `take` knows where its own bytes end — so
//! values read back in the order written, dependencies first, everywhere.

use crate::error::UniFaasError;
use crate::runtime::fabric::{FabricRuntime, WireFuture};
use fedci::fabric::FabricResult;
use std::marker::PhantomData;

/// A self-delimiting value that crosses to its endpoint as bytes.
pub trait Wire: Sized {
    /// Appends this value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `input`, advancing it. Hostile
    /// input is an `Err`, never a panic, and a length it claims allocates nothing.
    fn take(input: &mut &[u8]) -> Result<Self, String>;
}

/// Fixed-width little-endian integers — what the builtins produce, so
/// `fnv`/`sum64` outputs decode as `u64` on every backend.
macro_rules! wire_int {
    ($t:ty) => {
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(input: &mut &[u8]) -> Result<Self, String> {
                let split = input.split_first_chunk();
                let (bytes, rest) = split.ok_or("input ends inside an integer")?;
                *input = rest;
                Ok(<$t>::from_le_bytes(*bytes))
            }
        }
    };
}
wire_int!(u32);
wire_int!(u64);
wire_int!(i64);

/// Reads `count` elements, or every remaining one, growing element by
/// element (a count is a claim, not a size). A zero-width element is
/// refused: any number of them would loop without using any input.
fn take_elements<T: Wire>(input: &mut &[u8], count: Option<u32>) -> Result<Vec<T>, String> {
    let mut elements = Vec::new();
    while count.map_or(!input.is_empty(), |count| elements.len() < count as usize) {
        let before = input.len();
        elements.push(T::take(input)?);
        if input.len() == before {
            return Err("zero-width element in a sequence".into());
        }
    }
    Ok(elements)
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) {}

    fn take(_input: &mut &[u8]) -> Result<Self, String> {
        Ok(())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.len()).expect("over u32::MAX bytes");
        len.put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(input: &mut &[u8]) -> Result<Self, String> {
        let len = u32::take(input)? as usize;
        let split = input.split_at_checked(len);
        let (text, rest) = split.ok_or("input ends inside a string")?;
        *input = rest;
        let text = std::str::from_utf8(text);
        text.map(str::to_owned).map_err(|e| e.to_string())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        let count = u32::try_from(self.len()).expect("over u32::MAX elements");
        count.put(out);
        self.iter().for_each(|element| element.put(out));
    }

    fn take(input: &mut &[u8]) -> Result<Self, String> {
        let count = u32::take(input)?;
        take_elements(input, Some(count))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, String> {
        Ok((A::take(input)?, B::take(input)?))
    }
}

/// Every remaining value: the argument of a fan-in function, whose
/// dependency count is the caller's choice. Must come last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rest<T>(pub Vec<T>);

impl<T: Wire> Wire for Rest<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.iter().for_each(|element| element.put(out));
    }

    fn take(input: &mut &[u8]) -> Result<Self, String> {
        take_elements(input, None).map(Rest)
    }
}

fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    value.put(&mut bytes);
    bytes
}

fn decode<T: Wire>(mut bytes: &[u8]) -> Result<T, String> {
    let value = T::take(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(format!("{} bytes left over after the value", bytes.len()));
    }
    Ok(value)
}

/// The `@function` decorator: `registry.register(name, typed(f))`. The
/// input must decode as `A` and be used up; a decode error fails the task.
pub fn typed<A: Wire, R: Wire>(
    f: impl Fn(A) -> Result<R, String> + Send + Sync + 'static,
) -> impl Fn(&[u8]) -> FabricResult + Send + Sync + 'static {
    move |input| Ok(encode(&f(decode(input)?)?))
}

/// The future of a typed call. Dereferences to its [`WireFuture`], so it
/// is passed on as a dependency like any other.
pub struct TypedFuture<R>(WireFuture, PhantomData<fn() -> R>);

impl<R> std::ops::Deref for TypedFuture<R> {
    type Target = WireFuture;

    fn deref(&self) -> &WireFuture {
        &self.0
    }
}

impl<R: Wire> TypedFuture<R> {
    /// Blocks until the task completes and decodes its output.
    pub fn get(&self) -> Result<R, UniFaasError> {
        let task = self.0.task_id();
        decode(&self.0.wait()?).map_err(|message| UniFaasError::FunctionError { task, message })
    }
}

impl FabricRuntime {
    /// Invokes `function` on the outputs of `deps` (in order) followed by
    /// `args`, promising a result of type `R`. Returns immediately.
    pub fn call<A: Wire, R: Wire>(
        &self,
        function: &str,
        args: A,
        deps: &[&WireFuture],
    ) -> TypedFuture<R> {
        TypedFuture(self.submit(function, encode(&args), deps), PhantomData)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fabric::{FabricTiming, ThreadedFabric};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(decode::<T>(&encode(&value)).as_ref(), Ok(&value));
    }

    #[test]
    fn every_impl_round_trips() {
        round_trip(7u32);
        round_trip(u64::MAX);
        round_trip(-3i64);
        round_trip(());
        round_trip(String::new());
        round_trip("naïve — 数据".to_string());
        round_trip(Vec::<u64>::new());
        round_trip(vec![vec![1u64, 2], vec![], vec![3]]);
        round_trip((5u64, "five".to_string()));
        round_trip(((), (1i64, vec!["x".to_string()])));
        round_trip(Rest(vec![1u64, 2, 3]));
        round_trip((9u64, Rest(vec!["a".to_string(), String::new()])));
        // A value is its own delimiter: two in a row read back as a pair.
        let mut bytes = encode(&"ab".to_string());
        bytes.extend(encode(&vec![4u64]));
        assert_eq!(decode(&bytes), Ok(("ab".to_string(), vec![4u64])));
    }

    #[test]
    fn zero_width_elements_fail_instead_of_looping() {
        assert!(decode::<Rest<()>>(&[1]).is_err());
        assert!(decode::<Vec<()>>(&[0xFF; 4]).is_err());
        assert_eq!(decode::<Rest<()>>(&[]), Ok(Rest(vec![])));
        assert_eq!(decode::<Vec<()>>(&[0; 4]), Ok(vec![]));
    }

    #[test]
    fn a_claimed_count_reserves_nothing() {
        // `with_capacity(count)` would abort on these; an `Err` is proof.
        assert!(decode::<String>(&[0xFF; 4]).is_err());
        assert!(decode::<Vec<u64>>(&[0xFF; 4]).is_err());
        assert!(decode::<Vec<String>>(&[0xFF; 8]).is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..64)) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let _ = decode::<u64>(&bytes);
            let _ = decode::<String>(&bytes);
            let _ = decode::<Vec<String>>(&bytes);
            let _ = decode::<(u64, String)>(&bytes);
            // Fixed-width elements: `Rest` succeeds exactly on whole ones.
            let rest = decode::<Rest<u64>>(&bytes);
            prop_assert_eq!(rest.is_ok(), bytes.len().is_multiple_of(8));
        }
    }

    #[test]
    fn typed_functions_compose_deps_first() {
        let fabric = ThreadedFabric::new(&[("a", 2), ("b", 1)], &FabricTiming::fast());
        let functions = fabric.registry();
        functions.register("square", typed(|x: u64| Ok(x * x)));
        functions.register("sub", typed(|(a, b): (u64, u64)| Ok(a - b)));
        let sum = |Rest(xs): Rest<u64>| Ok(xs.iter().sum::<u64>());
        functions.register("sum", typed(sum));
        let rt = FabricRuntime::new(Arc::new(fabric));

        let nine = rt.call::<_, u64>("square", 3u64, &[]);
        let four = rt.call::<_, u64>("square", 2u64, &[]);
        // Dependencies in order, then the call's own argument.
        let five = rt.call::<_, u64>("sub", (), &[&nine, &four]);
        let eight = rt.call::<_, u64>("sub", 1u64, &[&nine]);
        let total = rt.call::<_, u64>("sum", 100u64, &[&five, &eight, &four]);
        assert_eq!((five.get(), eight.get()), (Ok(5), Ok(8)));
        assert_eq!(total.get(), Ok(117));
        // The builtins speak the same integers.
        assert_eq!(
            rt.call::<_, u64>("sum64", (), &[&nine, &four]).get(),
            Ok(13)
        );

        // Wrong arity fails the task; a wrong result type fails `get`.
        let err = rt.call::<_, u64>("sub", 1u64, &[&nine, &four]).get();
        assert!(err.unwrap_err().to_string().contains("left over"));
        assert!(rt.call::<_, String>("square", 3u64, &[]).get().is_err());
        assert!(rt.call::<_, u64>("square", (), &[]).get().is_err());
        rt.wait_all();
    }
}
