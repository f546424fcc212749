"""Updatable-queue transport comparison: queue library, simulator, harness."""
