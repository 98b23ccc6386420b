//! §5.3 / Figs. 8–9: the business trip application.
//!
//! Demonstrates, in one workflow:
//! - **redundant data sources**: three parallel airline queries, first
//!   answer wins (`flightFound` maps alternatives from all three),
//! - **compensation**: if the hotel cannot be booked, the compensating
//!   task `flightCancellation` undoes the flight reservation,
//! - **looping via a repeat outcome**: `businessReservation` retries
//!   until it reaches a final outcome (Fig. 8),
//! - **marks (early release)**: the cost is released through the `toPay`
//!   mark while `tripReservation` is still running.
//!
//! ```sh
//! cargo run --example business_trip
//! ```

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use flowscript::prelude::*;
use flowscript_engine::TaskBehavior as TB;

fn main() -> Result<(), EngineError> {
    let mut sys = WorkflowSystem::builder().executors(4).seed(99).build();
    sys.register_script(
        "trip",
        flowscript::samples::BUSINESS_TRIP,
        "tripReservation",
    )?;

    sys.bind_fn("refDataAcquisition", |ctx| {
        TB::outcome("acquired").with_object(
            "tripData",
            ObjectVal::text(
                "TripData",
                format!("AMS 26–29 May 1998, ≤ £500, for {}", ctx.input_text("user")),
            ),
        )
    });

    // Three airlines answer at different speeds; A finds nothing.
    sys.bind_fn("refAirlineQueryA", |_| {
        TB::outcome("notFound").with_work(SimDuration::from_millis(35))
    });
    sys.bind_fn("refAirlineQueryB", |ctx| {
        TB::outcome("found")
            .with_work(SimDuration::from_millis(90))
            .with_object(
                "flightList",
                ObjectVal::text(
                    "FlightList",
                    format!("KL-1234 [{}]", ctx.input_text("tripData")),
                ),
            )
    });
    sys.bind_fn("refAirlineQueryC", |ctx| {
        TB::outcome("found")
            .with_work(SimDuration::from_millis(150))
            .with_object(
                "flightList",
                ObjectVal::text(
                    "FlightList",
                    format!("BA-5678 [{}]", ctx.input_text("tripData")),
                ),
            )
    });

    sys.bind_fn("refFlightReservation", |ctx| {
        TB::outcome("reserved")
            .with_object(
                "plane",
                ObjectVal::text(
                    "Plane",
                    format!("seat 12A on {}", ctx.input_text("flightList")),
                ),
            )
            .with_object("cost", ObjectVal::text("Cost", "£432"))
    });

    // The hotel is full twice; the third incarnation succeeds. Each
    // failure triggers the compensation (flight cancellation) and a
    // businessReservation repeat.
    let hotel_attempts = Arc::new(AtomicU32::new(0));
    let attempts = hotel_attempts.clone();
    sys.bind_fn("refHotelReservation", move |_| {
        if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
            TB::outcome("failed").with_work(SimDuration::from_millis(70))
        } else {
            TB::outcome("hotelBooked")
                .with_work(SimDuration::from_millis(70))
                .with_object("hotel", ObjectVal::text("Hotel", "Hotel Krasnapolsky"))
        }
    });
    sys.bind_fn("refFlightCancellation", |ctx| {
        println!("  compensation: cancelling {}", ctx.input_text("plane"));
        TB::outcome("cancelled")
    });
    sys.bind_fn("refPrintTickets", |ctx| {
        TB::outcome("printed").with_object(
            "tickets",
            ObjectVal::text(
                "Tickets",
                format!("{} + {}", ctx.input_text("plane"), ctx.input_text("hotel")),
            ),
        )
    });

    sys.start(
        "trip-1",
        "trip",
        "main",
        [("user", ObjectVal::text("User", "s.k.shrivastava"))],
    )?;
    sys.run();

    let outcome = sys.outcome("trip-1").expect("trip settles");
    println!("\noutcome: {}", outcome.name);
    assert_eq!(outcome.name, "booked");
    println!("tickets: {}", outcome.objects["tickets"].as_text());
    println!("hotel attempts: {}", hotel_attempts.load(Ordering::Relaxed));
    println!("compound repeats taken: {}", sys.stats().repeats);

    // The `toPay` mark was released before the trip finished.
    let to_pay = sys
        .output_fact("trip-1", "tripReservation", "toPay")
        .expect("mark released");
    println!("toPay mark: {}", to_pay["cost"].as_text());
    assert_eq!(sys.stats().repeats, 2);
    Ok(())
}
