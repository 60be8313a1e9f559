"""Drivers that regenerate every table and figure of the paper."""
