"""Integration: reservations steer the server-selection controller."""

from repro.allocation.reservations import Reservation, ReservationBook
from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.core.server_selection import ServerSelector
from repro.serviceglobe.platform import Platform
from tests.core.conftest import build_landscape, set_demand
from tests.fuzzy.oracle import host_measurements, server_score


def booked_score(platform, book):
    """Big1's scale-out suitability as a selector with ``book`` ranks it."""
    ranked = ServerSelector(reservations=book).rank(
        platform, Action.SCALE_OUT, [platform.host("Big1")]
    )
    return ranked[0].score


def score_at_cpu_load(platform, cpu_load):
    """Big1's scale-out suitability, its CPU load read as ``cpu_load``."""
    measurements = host_measurements(platform, platform.host("Big1"))
    measurements["cpuLoad"] = cpu_load
    return server_score(ServerSelector(), Action.SCALE_OUT, measurements)


class TestMeasurementAdjustment:
    def test_reserved_capacity_inflates_cpu_load(self):
        platform = Platform(build_landscape())
        book = ReservationBook()
        book.register(Reservation("Big1", demand=4.5, start=0, end=100))
        plain = platform.host_cpu_load("Big1")
        assert booked_score(platform, book) == score_at_cpu_load(platform, plain + 0.5)
        assert booked_score(platform, book) < score_at_cpu_load(platform, plain)

    def test_lookahead_covers_imminent_reservations(self):
        """A reservation starting within the horizon already counts."""
        platform = Platform(build_landscape())
        platform.current_time = 100
        book = ReservationBook()
        book.register(Reservation("Big1", demand=4.5, start=120, end=200))
        plain = platform.host_cpu_load("Big1")
        assert booked_score(platform, book) == score_at_cpu_load(platform, plain + 0.5)

    def test_far_future_reservations_ignored(self):
        platform = Platform(build_landscape())
        platform.current_time = 0
        book = ReservationBook()
        book.register(Reservation("Big1", demand=4.5, start=500, end=600))
        assert booked_score(platform, book) == booked_score(platform, ReservationBook())


class TestSelectionSteering:
    def test_reservation_diverts_scale_out(self):
        """Without a reservation the big idle server wins the placement;
        with its capacity reserved for a mission-critical task, the
        selector picks another host."""
        platform = Platform(build_landscape())
        free_selector = ServerSelector()
        candidates = [platform.host("Strong1"), platform.host("Big1")]
        assert free_selector.rank(platform, Action.SCALE_OUT, candidates)[
            0
        ].host_name == "Big1"

        book = ReservationBook()
        book.register(
            Reservation("Big1", demand=8.0, start=0, end=600,
                        label="quarter-end closing run")
        )
        reserving_selector = ServerSelector(reservations=book)
        ranked = reserving_selector.rank(platform, Action.SCALE_OUT, candidates)
        assert ranked[0].host_name == "Strong1"

    def test_controller_end_to_end_respects_reservation(self):
        platform = Platform(build_landscape())
        book = ReservationBook()
        book.register(Reservation("Big1", demand=8.5, start=0, end=300))
        controller = AutoGlobeController(platform, reservations=book)
        for now in range(15):
            set_demand(platform, "Weak1", 0.95)
            controller.tick(now)
        placements = {
            o.target_host for o in platform.audit_log if o.target_host
        }
        assert placements  # the controller did remedy the overload
        assert "Big1" not in placements
