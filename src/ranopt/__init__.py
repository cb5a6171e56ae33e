"""Closed-loop RAN scheduler selection: simulator, KPI pipeline, double-Q agent."""
