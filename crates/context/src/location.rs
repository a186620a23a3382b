//! Geographic context: points and regions for geo-fencing policies.
//!
//! Location underpins several of the paper's examples: a nurse may access patient data
//! only "when detected in the context of their homes" (§3 Concern 6), and regulation may
//! require that "personal data must not leave the EU" (§9.3 Challenge 1). Regions are
//! modelled as axis-aligned bounding boxes plus named membership, which is sufficient
//! for the policy conditions exercised by the scenarios and keeps the geometry simple.

use std::fmt;

/// A geographic point (latitude/longitude in degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Valid range −90..=90.
    pub latitude: f64,
    /// Longitude in degrees, positive east. Valid range −180..=180.
    pub longitude: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and longitude into their valid ranges.
    pub fn new(latitude: f64, longitude: f64) -> Self {
        GeoPoint {
            latitude: latitude.clamp(-90.0, 90.0),
            longitude: longitude.clamp(-180.0, 180.0),
        }
    }

    /// Approximate planar distance (in degrees) between two points; adequate for the
    /// containment and proximity checks in the scenarios.
    pub fn planar_distance(&self, other: &GeoPoint) -> f64 {
        let dlat = self.latitude - other.latitude;
        let dlon = self.longitude - other.longitude;
        (dlat * dlat + dlon * dlon).sqrt()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.latitude, self.longitude)
    }
}

/// A named geographic region: an axis-aligned latitude/longitude box.
///
/// ```
/// use legaliot_context::{GeoPoint, Region};
/// let eu = Region::new("eu", GeoPoint::new(35.0, -10.0), GeoPoint::new(70.0, 30.0));
/// assert!(eu.contains(&GeoPoint::new(52.2, 0.1)));   // Cambridge
/// assert!(!eu.contains(&GeoPoint::new(40.7, -74.0))); // New York
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    name: String,
    south_west: GeoPoint,
    north_east: GeoPoint,
}

impl Region {
    /// Creates a region from its south-west and north-east corners.
    ///
    /// Corners are normalised so that `south_west` is always the minimum corner.
    pub fn new(name: impl Into<String>, a: GeoPoint, b: GeoPoint) -> Self {
        let south_west = GeoPoint::new(a.latitude.min(b.latitude), a.longitude.min(b.longitude));
        let north_east = GeoPoint::new(a.latitude.max(b.latitude), a.longitude.max(b.longitude));
        Region { name: name.into(), south_west, north_east }
    }

    /// The region's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the region contains the given point (inclusive of its boundary).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.latitude >= self.south_west.latitude
            && p.latitude <= self.north_east.latitude
            && p.longitude >= self.south_west.longitude
            && p.longitude <= self.north_east.longitude
    }

    /// Whether this region entirely contains another region.
    pub fn contains_region(&self, other: &Region) -> bool {
        self.contains(&other.south_west) && self.contains(&other.north_east)
    }

    /// A small region around a single point, used for homes/wards in the scenarios.
    pub fn around(name: impl Into<String>, centre: GeoPoint, half_side_degrees: f64) -> Self {
        Region::new(
            name,
            GeoPoint::new(
                centre.latitude - half_side_degrees,
                centre.longitude - half_side_degrees,
            ),
            GeoPoint::new(
                centre.latitude + half_side_degrees,
                centre.longitude + half_side_degrees,
            ),
        )
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} .. {}]", self.name, self.south_west, self.north_east)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_clamping() {
        let p = GeoPoint::new(100.0, -200.0);
        assert_eq!(p.latitude, 90.0);
        assert_eq!(p.longitude, -180.0);
    }

    #[test]
    fn region_contains_points() {
        let eu = Region::new("eu", GeoPoint::new(35.0, -10.0), GeoPoint::new(70.0, 30.0));
        assert!(eu.contains(&GeoPoint::new(52.2, 0.1)));
        assert!(eu.contains(&GeoPoint::new(35.0, -10.0))); // boundary inclusive
        assert!(!eu.contains(&GeoPoint::new(34.9, 0.0)));
        assert_eq!(eu.name(), "eu");
    }

    #[test]
    fn region_normalises_corners() {
        let r = Region::new("r", GeoPoint::new(70.0, 30.0), GeoPoint::new(35.0, -10.0));
        assert!(r.contains(&GeoPoint::new(50.0, 0.0)));
    }

    #[test]
    fn region_containment() {
        let eu = Region::new("eu", GeoPoint::new(35.0, -10.0), GeoPoint::new(70.0, 30.0));
        let uk = Region::new("uk", GeoPoint::new(49.9, -8.6), GeoPoint::new(60.9, 1.8));
        let us = Region::new("us", GeoPoint::new(24.5, -125.0), GeoPoint::new(49.4, -66.9));
        assert!(eu.contains_region(&uk));
        assert!(!eu.contains_region(&us));
    }

    #[test]
    fn around_builds_square() {
        let home = Region::around("ann-home", GeoPoint::new(52.2, 0.12), 0.01);
        assert!(home.contains(&GeoPoint::new(52.205, 0.125)));
        assert!(!home.contains(&GeoPoint::new(52.25, 0.12)));
    }

    #[test]
    fn planar_distance() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(3.0, 4.0);
        assert!((a.planar_distance(&b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn display_forms() {
        let p = GeoPoint::new(1.0, 2.0);
        assert_eq!(p.to_string(), "(1.0000, 2.0000)");
        let r = Region::new("x", p, p);
        assert!(r.to_string().starts_with("x ["));
    }

    proptest! {
        /// Any point used to build a region around it is contained in that region.
        #[test]
        fn prop_around_contains_centre(lat in -80.0f64..80.0, lon in -170.0f64..170.0, half in 0.001f64..5.0) {
            let centre = GeoPoint::new(lat, lon);
            let region = Region::around("r", centre, half);
            prop_assert!(region.contains(&centre));
        }

        /// Region containment is reflexive and antisymmetric on distinct boxes.
        #[test]
        fn prop_region_contains_self(lat in -80.0f64..80.0, lon in -170.0f64..170.0, half in 0.001f64..5.0) {
            let r = Region::around("r", GeoPoint::new(lat, lon), half);
            prop_assert!(r.contains_region(&r));
        }
    }
}
