//! Sensor-channel attack and fault injection for ADAssure campaigns.
//!
//! The original ADAssure evaluation subjected a real AV platform to
//! cyber-attacks on its sensor channels; this crate substitutes that rig
//! with injectors that mutate [`adassure_sim::sensor::SensorFrame`]s between
//! the (simulated) physical sensors and the control stack — the same place
//! a network-level spoofing attack lands.
//!
//! * [`AttackKind`] — the attack taxonomy (GNSS bias / drift / jump / noise
//!   / freeze / dropout / delay, wheel-speed scaling / freeze, IMU yaw bias,
//!   compass bias);
//! * [`Window`] — when the attack is active;
//! * [`AttackInjector`] — a stateful [`adassure_sim::engine::SensorTap`]
//!   applying one attack;
//! * [`ChannelFaultInjector`] — telemetry-link faults (dropout, stale
//!   repeat, jitter, NaN bursts, duplicates) on the *monitor's* input
//!   stream, independent of any vehicle attack;
//! * [`campaign`] — the standard attack catalog and spec types used by the
//!   experiment harnesses.
//!
//! # Example
//!
//! ```
//! use adassure_attacks::{AttackInjector, AttackKind, Window};
//! use adassure_sim::geometry::Vec2;
//!
//! let attack = AttackKind::GnssBias { offset: Vec2::new(3.0, 0.0) };
//! let injector = AttackInjector::new(attack, Window::from_start(5.0), 42);
//! assert_eq!(injector.kind().channel(), adassure_attacks::Channel::Gnss);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
mod fault;
mod injector;
mod kind;
mod schedule;
mod timeline;

pub use fault::{ChannelFaultInjector, Delivery, FaultKind, FaultSpec};
pub use injector::{AttackInjector, InjectorState};
pub use kind::{AttackKind, Channel};
pub use schedule::Window;
pub use timeline::{AttackTimeline, MultiInjector};
