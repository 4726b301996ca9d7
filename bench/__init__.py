"""End-to-end LBL-ORTOA benchmark over real TCP (see ``bench/README.md``)."""
