"""The controller console's views (Figure 8), asserted on its one frame.

The frame is what ``autoglobe console`` prints: an
:class:`~repro.ops.api.OpsBridge` over the controller, refreshed at a
tick boundary, rendered by :func:`repro.ops.console.render_snapshot`;
its messages are the alerts the bridge saw published.
Manual execution (Section 4.3) is the controller's own
:meth:`~repro.core.autoglobe.AutoGlobeController.execute_manually`.
"""

import pytest

from repro.config.model import Action
from repro.core.autoglobe import AutoGlobeController
from repro.serviceglobe.platform import Platform
from tests.core.conftest import (
    build_landscape,
    console,
    console_frame,
    console_view,
    set_demand,
)


@pytest.fixture
def controller():
    return AutoGlobeController(Platform(build_landscape()))


def row(lines, name):
    """The table row naming ``name``: a server (after its category) or a service."""
    return next(line for line in lines if name in line.split()[:2])


class TestServerView:
    def test_all_servers_listed(self, controller):
        lines = console_view(console_frame(controller), "Servers")
        for host in ("Weak1", "Weak2", "Strong1", "Strong2", "Big1"):
            assert row(lines, host)

    def test_grouped_by_category(self, controller):
        lines = console_view(console_frame(controller), "Servers")
        assert lines[0].split()[:2] == ["category", "server"]
        keys = [tuple(line.split()[:2]) for line in lines[2:]]
        assert len(keys) == 5 and keys == sorted(keys)

    def test_loads_rendered_as_percentages(self, controller):
        set_demand(controller.platform, "Weak1", 0.5)
        weak1 = row(console_view(console_frame(controller), "Servers"), "Weak1")
        assert weak1.split()[4:6] == ["50%", "25%"]  # cpu, then 512 of 2048 MB

    def test_protection_column(self, controller):
        controller.protection.protect(["Weak1"], now=0)
        lines = console_view(console_frame(controller, now=5), "Servers")
        assert row(lines, "Weak1").endswith("yes")
        assert not row(lines, "Weak2").endswith("yes")
        # protection expires
        later = console_frame(controller, now=controller.settings.protection_time)
        assert not row(console_view(later, "Servers"), "Weak1").endswith("yes")

    def test_empty_host_shows_dash(self, controller):
        weak2 = row(console_view(console_frame(controller), "Servers"), "Weak2")
        assert weak2.split()[-1] == "-"


class TestServiceView:
    def test_services_with_placement(self, controller):
        lines = console_view(console_frame(controller), "Services")
        app, db = row(lines, "APP"), row(lines, "DB")
        assert app.split()[-1].endswith("@Weak1") and db.split()[-1].endswith("@Big1")

    def test_user_counts_shown(self, controller):
        controller.platform.service("APP").running_instances[0].users = 42
        app = row(console_view(console_frame(controller), "Services"), "APP")
        assert app.split()[4] == "42"

    def test_priority_shown(self, controller):
        controller.platform.service("APP").adjust_priority(+2)
        app = row(console_view(console_frame(controller), "Services"), "APP")
        assert app.split()[2] == "7"


class TestMessageView:
    def test_empty(self, controller):
        assert console_view(console_frame(controller), "Messages") == ["(no messages)"]

    def test_limit_applies(self, controller):
        bridge = console(controller)
        for index in range(30):
            controller.alerts.info(index, f"message {index}")
        lines = console_view(console_frame(controller, now=30, bridge=bridge), "Messages")
        assert len(lines) == 20
        assert lines[0].endswith("message 10") and lines[-1].endswith("message 29")

    def test_render_combines_views(self, controller):
        text = console_frame(controller)
        assert text.index("== Servers ==") < text.index("== Services ==")
        assert text.index("== Services ==") < text.index("== Messages ==")
        assert text.index("== Messages ==") < text.index("== approvals:")


class TestManualExecution:
    def test_manual_action_executes_and_logs(self, controller):
        bridge = console(controller)
        outcome = controller.execute_manually(
            Action.SCALE_OUT, "APP", target_host="Weak2", now=2
        )
        assert outcome.target_host == "Weak2"
        messages = console_view(console_frame(controller, now=2, bridge=bridge), "Messages")
        assert any("manual action" in line for line in messages)
        assert row(console_view(console_frame(controller, now=2), "Servers"),
                   "Weak2").endswith("yes")

    def test_manual_action_respects_physics(self, controller):
        from repro.serviceglobe.actions import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            controller.execute_manually(
                Action.SCALE_OUT, "DB", target_host="Weak1", now=0
            )
