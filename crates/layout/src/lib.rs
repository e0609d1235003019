//! Block-cyclic data layouts and redistribution.
//!
//! This crate is the workspace's substitute for the ScaLAPACK layout
//! machinery plus the COSTA layout-transformation library the paper uses for
//! its ScaLAPACK-compatible wrappers (paper §8, the `pdgetrf`/`pdpotrf`
//! drop-in interface): a [`BlockCyclic`] descriptor describes
//! how a global matrix is scattered over a 2D process grid, [`DistMatrix`]
//! pairs a descriptor with one rank's local storage, and [`redistribute`]
//! moves a distributed matrix between two arbitrary block-cyclic layouts
//! with measured communication.

#![warn(unreachable_pub)]

pub mod desc;
pub mod dist;
pub mod redist;

pub use desc::{BlockCyclic, ScalapackDesc};
pub use dist::DistMatrix;
pub use redist::redistribute;
