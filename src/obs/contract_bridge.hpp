// Bridges audit-mode contract violations (common/contract.hpp) into the
// observability subsystem:
//
//  * metrics registry — one counter per violation site, registered as
//    "contract.violations_total{site=...}", which the Prometheus exporter
//    renders as rrf_contract_violations_total{site="..."} so a scraper
//    can alert on any nonzero rate;
//  * event tracer — one kContractViolation instant per violation (the
//    site travels in the event's value as the registry counter's current
//    count; the JSONL consumer joins on timestamps).
//
// The bridge only fires in audit mode (abort mode never returns from a
// violation).  Both sinks respect their own runtime switches: counters
// are recorded only while metrics_enabled(), trace events only while
// tracing_enabled().
#pragma once

namespace rrf::obs {

/// Installs the audit-mode contract violation handler.  Idempotent;
/// replaces any previously installed handler.
void install_contract_audit_recorder();

/// Uninstalls the handler (violations are still tallied by
/// contract::violation_counts()).
void uninstall_contract_audit_recorder();

}  // namespace rrf::obs
